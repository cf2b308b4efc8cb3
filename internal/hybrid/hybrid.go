// Package hybrid implements the *naive* spatio-temporal combination of
// §3.1: the temporal component records only spatial triggers; on an
// off-chip miss it looks the address up in the trigger sequence, fetches
// the triggers that follow, and for each fetched trigger immediately
// fetches the entire spatial pattern the PHT predicts — with no notion of
// ordering or interleaving.
//
// The paper keeps this design as a cautionary baseline: "it overwhelms the
// memory system because the spatial patterns predicted in rapid succession
// are prefetched simultaneously … STeMS drastically improves prefetch
// accuracy" (§3.1, §5.5: the naive combination generates roughly 2–3× the
// overpredictions of STeMS on OLTP and web). The BenchmarkHybridOverprediction
// ablation reproduces that comparison.
package hybrid

import (
	"stems/internal/config"
	"stems/internal/flat"
	"stems/internal/mem"
	"stems/internal/sms"
	"stems/internal/stream"
	"stems/internal/trace"
)

// triggerEntry is one record of the trigger-sequence buffer.
type triggerEntry struct {
	block mem.Addr
	pc    uint64
}

// Stats counts hybrid activity.
type Stats struct {
	TriggerAppends uint64
	Bursts         uint64 // miss lookups that found history and burst-fetched
	BurstBlocks    uint64 // blocks fetched by bursts (triggers + patterns)
}

// Hybrid is the naive side-by-side combination.
type Hybrid struct {
	spatial *sms.SMS
	engine  *stream.Engine

	// triggers is the trigger sequence, indexed by block: the miss-order
	// ring TMS's CMOB and STeMS's RMOB also use (flat.Ring).
	triggers *flat.Ring[mem.Addr, triggerEntry]

	burstTriggers int
	lastTrigger   bool
	lastPC        uint64

	stats Stats
}

// New creates the naive hybrid. The SMS half runs live (fetching through
// engine at trigger time, as standalone SMS would); the temporal half
// burst-fetches through the same engine.
func New(smsCfg config.SMS, tmsCfg config.TMS, engine *stream.Engine) *Hybrid {
	if tmsCfg.CMOBEntries <= 0 {
		tmsCfg = config.DefaultTMS()
	}
	return &Hybrid{
		spatial:  sms.New(smsCfg, engine),
		engine:   engine,
		triggers: flat.NewRing(tmsCfg.CMOBEntries, func(e triggerEntry) mem.Addr { return e.block }),
		// With no ordering information the naive design has to fetch the
		// whole pool of addresses that will be needed "soon" (§3.1); a
		// lookahead-and-a-half of triggers with their full patterns
		// routinely exceeds the SVB.
		burstTriggers: tmsCfg.Lookahead * 3 / 2,
	}
}

// Name implements the Prefetcher interface.
func (h *Hybrid) Name() string { return "naive-hybrid" }

// Stats returns cumulative statistics.
func (h *Hybrid) Stats() Stats {
	s := h.stats
	s.TriggerAppends = h.triggers.Appends()
	return s
}

// SpatialStats exposes the embedded SMS statistics.
func (h *Hybrid) SpatialStats() sms.Stats { return h.spatial.Stats() }

// OnAccess forwards to the spatial half and notes whether this access
// opened a generation (the definition of a trigger).
func (h *Hybrid) OnAccess(a trace.Access, l1Hit bool) {
	before := h.spatial.Stats().Triggers
	h.spatial.OnAccess(a, l1Hit)
	h.lastTrigger = h.spatial.Stats().Triggers > before
	h.lastPC = a.PC
}

// OnL1Evict forwards to the spatial half.
func (h *Hybrid) OnL1Evict(block mem.Addr) { h.spatial.OnL1Evict(block) }

// OnOffChipEvent records trigger misses in the trigger sequence and, on an
// unpredicted miss, bursts: it fetches the following triggers and each of
// their full spatial patterns simultaneously.
func (h *Hybrid) OnOffChipEvent(a trace.Access, covered bool) {
	if a.Write {
		return
	}
	block := a.Addr.Block()
	var prev uint64
	prevOK := false
	if !covered {
		prev, prevOK = h.triggers.Lookup(block)
	}
	if h.lastTrigger {
		h.triggers.Append(triggerEntry{block: block, pc: a.PC})
	}
	if covered || !prevOK {
		return
	}
	h.burst(prev + 1)
}

// burst fetches the next burstTriggers triggers and all their spatial
// pattern blocks at once — the unthrottled behavior that floods the SVB.
func (h *Hybrid) burst(from uint64) {
	h.stats.Bursts++
	for i := 0; i < h.burstTriggers; i++ {
		e, ok := h.triggers.At(from + uint64(i))
		if !ok {
			break
		}
		h.engine.Direct(e.block)
		h.stats.BurstBlocks++
		if mask, ok := h.spatial.Pattern(e.pc, e.block.RegionOffset()); ok {
			region := e.block.Region()
			for off := 0; off < mem.RegionBlocks; off++ {
				if mask&(1<<off) != 0 {
					h.engine.Direct(region.BlockAt(off))
					h.stats.BurstBlocks++
				}
			}
		}
	}
}
