// Package stride implements the baseline stride prefetcher of Table 1
// ("32-entry buffer, max 16 distinct strides"): a PC-indexed reference
// prediction table that detects constant-stride miss patterns and prefetches
// ahead. Stride prefetching is "largely ineffective for commercial
// workloads" (§1) — this package exists so the Figure 10 baseline matches
// the paper's.
package stride

import (
	"stems/internal/config"
	"stems/internal/lru"
	"stems/internal/mem"
	"stems/internal/stream"
	"stems/internal/trace"
)

// rptState is the classic reference-prediction-table confidence automaton.
type rptState uint8

const (
	stateInitial rptState = iota
	stateTransient
	stateSteady
)

type rptEntry struct {
	lastAddr mem.Addr
	stride   int64
	state    rptState
}

// Stride is the prefetcher. It trains on L1 misses and fetches into the
// shared streamed value buffer.
type Stride struct {
	cfg    config.Stride
	engine *stream.Engine
	table  *lru.U64Map[rptEntry] // keyed by PC
	issued uint64
}

// New creates a stride prefetcher fetching through engine.
func New(cfg config.Stride, engine *stream.Engine) *Stride {
	if cfg.TableEntries <= 0 {
		cfg = config.DefaultStride()
	}
	return &Stride{
		cfg:    cfg,
		engine: engine,
		table:  lru.NewU64[rptEntry](cfg.TableEntries),
	}
}

// Name implements the simulator's Prefetcher interface.
func (s *Stride) Name() string { return "stride" }

// OnAccess trains on L1 misses and issues prefetches when a stride is
// confirmed.
func (s *Stride) OnAccess(a trace.Access, l1Hit bool) {
	if l1Hit || a.Write {
		return
	}
	// One probe: updating through the reference is a Get followed by a
	// Put of the new state.
	ent, ok := s.table.GetRef(a.PC)
	if !ok {
		s.table.Put(a.PC, rptEntry{lastAddr: a.Addr, state: stateInitial})
		return
	}
	observed := int64(a.Addr) - int64(ent.lastAddr)
	switch {
	case observed == 0:
		return
	case observed == ent.stride && ent.state != stateInitial:
		ent.state = stateSteady
	case observed == ent.stride:
		ent.state = stateTransient
	default:
		ent.stride = observed
		ent.state = stateTransient
		ent.lastAddr = a.Addr
		return
	}
	ent.lastAddr = a.Addr
	if ent.state == stateSteady {
		for d := 1; d <= s.cfg.Degree; d++ {
			target := mem.Addr(int64(a.Addr) + int64(d)*ent.stride)
			s.engine.Direct(target.Block())
			s.issued++
		}
	}
}

// OnL1Evict implements the Prefetcher interface (strides don't track
// generations).
func (s *Stride) OnL1Evict(mem.Addr) {}

// OnOffChipEvent implements the Prefetcher interface (strides train at
// access granularity, nothing to do here).
func (s *Stride) OnOffChipEvent(trace.Access, bool) {}

// Issued returns the number of prefetches requested (pre-dedup).
func (s *Stride) Issued() uint64 { return s.issued }
