// Package epoch implements epoch-based correlation prefetching (Chou,
// MICRO 2007 — reference [6] of the paper, discussed in §6: "divides
// temporal sequences into epochs of parallelizable misses, and predicts
// only epochs for which the prefetches will be timely. ... orthogonal and
// could be applied to the STeMS implementation").
//
// The insight: an out-of-order core already overlaps the independent
// misses *within* an epoch (the group of misses issued together behind one
// serializing, dependent miss). Prefetching those buys little. What a
// correlation prefetcher should predict, on an epoch's lead miss, is the
// membership of the *following* epochs — the misses the core cannot see
// yet. The correlation table is indexed by lead-miss address and stores
// the next epochs' blocks, so its reach is one entry per epoch rather than
// per miss, a fraction of TMS's CMOB.
package epoch

import (
	"stems/internal/config"
	"stems/internal/lru"
	"stems/internal/mem"
	"stems/internal/stream"
	"stems/internal/trace"
)

// Config sizes the epoch prefetcher. It lives in the config package with
// the other predictor configurations so the sim layer can reference it
// without importing this package (the registry inverts that dependency).
type Config = config.Epoch

// DefaultConfig mirrors the reference's low-cost design point.
func DefaultConfig() Config {
	return config.DefaultEpoch()
}

// entry is one correlation-table record: the epoch that followed a lead.
type entry struct {
	nextLead mem.Addr
	blocks   []mem.Addr // members of the next epoch (including its lead)
}

// Stats counts predictor activity.
type Stats struct {
	Epochs     uint64 // epochs observed
	TableHits  uint64 // lead lookups that found a correlation
	Prefetches uint64 // blocks requested
}

// Epoch is the prefetcher.
type Epoch struct {
	cfg    Config
	engine *stream.Engine
	table  *lru.U64Map[entry] // keyed by uint64(lead)

	curLead   mem.Addr
	curBlocks []mem.Addr
	haveEpoch bool
	// spare is the membership storage of the last entry the table
	// displaced, reused by the next new lead so a full table commits
	// epochs without allocating.
	spare []mem.Addr

	stats Stats
}

// New creates an epoch-based correlation prefetcher fetching through
// engine (nil for analysis mode).
func New(cfg Config, engine *stream.Engine) *Epoch {
	if cfg.TableEntries <= 0 {
		cfg = DefaultConfig()
	}
	return &Epoch{
		cfg:    cfg,
		engine: engine,
		table:  lru.NewU64[entry](cfg.TableEntries),
	}
}

// Name implements the sim.Prefetcher interface.
func (e *Epoch) Name() string { return "epoch" }

// Stats returns cumulative statistics.
func (e *Epoch) Stats() Stats { return e.stats }

// TableLen returns the number of learned correlations.
func (e *Epoch) TableLen() int { return e.table.Len() }

// OnAccess implements sim.Prefetcher (epochs are detected at miss level).
func (e *Epoch) OnAccess(trace.Access, bool) {}

// OnL1Evict implements sim.Prefetcher.
func (e *Epoch) OnL1Evict(mem.Addr) {}

// OnOffChipEvent observes the off-chip read miss stream. A dependent miss
// is a serialization point: it ends the current epoch (whose membership is
// committed to the table under the previous lead) and becomes the next
// epoch's lead. Unpredicted leads look up the table and prefetch the
// blocks of the following epochs.
func (e *Epoch) OnOffChipEvent(a trace.Access, covered bool) {
	if a.Write {
		return
	}
	block := a.Addr.Block()
	if a.Dep {
		e.commitEpoch(block)
		e.curLead = block
		e.curBlocks = e.curBlocks[:0]
		e.curBlocks = append(e.curBlocks, block)
		e.haveEpoch = true
		if !covered {
			e.predict(block)
		}
		return
	}
	// Independent miss: joins the current epoch.
	if e.haveEpoch && len(e.curBlocks) < e.cfg.MaxEpochLen {
		e.curBlocks = append(e.curBlocks, block)
	}
}

// commitEpoch stores the finished epoch under its lead, linking the chain.
func (e *Epoch) commitEpoch(nextLead mem.Addr) {
	if !e.haveEpoch {
		return
	}
	e.stats.Epochs++
	// Keyed by the finished epoch's lead, the record holds that epoch's
	// own membership plus the successor's lead: everything a prefetcher
	// should fetch when this lead misses again, with the chain pointer to
	// keep walking for deeper timeliness. A known lead is rewritten in
	// place, which is exactly a Put of the new record.
	if ent, ok := e.table.GetRef(uint64(e.curLead)); ok {
		ent.nextLead = nextLead
		ent.blocks = append(ent.blocks[:0], e.curBlocks...)
		return
	}
	blocks := e.spare
	if cap(blocks) < len(e.curBlocks) {
		blocks = make([]mem.Addr, 0, e.cfg.MaxEpochLen)
	}
	blocks = append(blocks[:0], e.curBlocks...)
	if _, victim, ev := e.table.Put(uint64(e.curLead), entry{nextLead: nextLead, blocks: blocks}); ev {
		e.spare = victim.blocks
	} else {
		e.spare = nil
	}
}

// predict walks the correlation chain from lead and prefetches the stored
// epoch memberships.
func (e *Epoch) predict(lead mem.Addr) {
	if e.engine == nil {
		return
	}
	cur := lead
	for depth := 0; depth < e.cfg.EpochsAhead; depth++ {
		ent, ok := e.table.Get(uint64(cur))
		if !ok {
			return
		}
		e.stats.TableHits++
		for _, b := range ent.blocks {
			if b == lead {
				continue // the demand miss itself
			}
			e.engine.Direct(b)
			e.stats.Prefetches++
		}
		if ent.nextLead != lead {
			e.engine.Direct(ent.nextLead)
			e.stats.Prefetches++
		}
		cur = ent.nextLead
	}
}
