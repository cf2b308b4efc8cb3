// Package sms implements Spatial Memory Streaming (Somogyi et al., ISCA
// 2006), the spatial-correlation baseline of the paper (§2.3–2.4).
//
// SMS observes all L1 accesses. The first access to an inactive 2KB region
// (the trigger) looks up the pattern history table (PHT) with a PC+offset
// index and prefetches the blocks of the stored pattern. Accesses then
// accumulate in an active generation table (AGT, split into a filter table
// for single-access regions and an accumulation table) until a block of the
// generation is evicted from L1, at which point the observed pattern trains
// the PHT.
//
// Following §4.3 of the STeMS paper, the PHT stores a 2-bit saturating
// counter per block ("compared with bit vectors, 2-bit counters attain the
// same coverage while roughly halving overpredictions"); bit-vector mode is
// retained for the ablation benchmark.
package sms

import (
	"stems/internal/config"
	"stems/internal/lru"
	"stems/internal/mem"
	"stems/internal/stream"
	"stems/internal/trace"
)

// Key is the PHT prediction index: the PC of the trigger instruction
// combined with the trigger's block offset within its region (§2.4).
type Key struct {
	PC     uint64
	Offset int
}

// pack folds a Key into one word for the PHT's uint64-keyed table, the
// offset in the low 5 bits and the PC above them — the packing core.Key
// uses. Injective for any PC below 2^59, so the table behaves exactly as
// if keyed on the struct.
func (k Key) pack() uint64 {
	return k.PC<<mem.RegionBlockBits | uint64(k.Offset&(mem.RegionBlocks-1))
}

// Pattern is one PHT entry.
type Pattern struct {
	// Counters holds a 2-bit saturating counter per region block
	// (counters mode).
	Counters [mem.RegionBlocks]uint8
	// Bits is the last observed footprint (bit-vector mode).
	Bits uint32
	// mask is the offsets the pattern predicts, computed when it is
	// trained so lookups need not rescan the counters.
	mask uint32
}

// predictMask returns the offsets predicted by the pattern.
func (p Pattern) predictMask(useCounters bool, threshold uint8) uint32 {
	if !useCounters {
		return p.Bits
	}
	var mask uint32
	for off, c := range p.Counters {
		if c >= threshold {
			mask |= 1 << off
		}
	}
	return mask
}

// generation is an active spatial generation.
type generation struct {
	pc       uint64 // trigger PC
	off      int    // trigger offset
	observed uint32 // offsets touched this generation
	// predicted is the offset mask the trigger-time PHT lookup predicted,
	// which answers WasPredicted for misses inside the generation (Figure
	// 6 classification and the STeMS RMOB filter use the same notion).
	predicted uint32
}

// Stats counts predictor activity.
type Stats struct {
	Triggers    uint64 // generations opened
	PHTHits     uint64 // triggers that found a pattern
	Trained     uint64 // generations committed to the PHT
	Predicted   uint64 // blocks prefetched
	FilterDrops uint64 // single-access generations discarded
}

// SMS is the prefetcher. With a nil engine it runs in analysis mode:
// training and prediction bookkeeping happen but no fetches are issued —
// the mode used by the Figure 6 joint-coverage classifier.
type SMS struct {
	cfg    config.SMS
	engine *stream.Engine

	filter *lru.U64Map[generation] // keyed by uint64(region)
	accum  *lru.U64Map[generation] // keyed by uint64(region)
	pht    *lru.U64Map[Pattern]    // keyed by Key.pack()

	stats Stats
}

// New creates an SMS prefetcher. engine may be nil for analysis mode.
func New(cfg config.SMS, engine *stream.Engine) *SMS {
	if cfg.PHTEntries <= 0 {
		cfg = config.DefaultSMS()
	}
	return &SMS{
		cfg:    cfg,
		engine: engine,
		filter: lru.NewU64[generation](cfg.FilterEntries),
		accum:  lru.NewU64[generation](cfg.AccumEntries),
		pht:    lru.NewU64[Pattern](cfg.PHTEntries),
	}
}

// Name implements the Prefetcher interface.
func (s *SMS) Name() string { return "sms" }

// Stats returns cumulative predictor statistics.
func (s *SMS) Stats() Stats { return s.stats }

// OnAccess observes one L1 access (hit or miss), opening, extending, or
// (indirectly) training generations.
func (s *SMS) OnAccess(a trace.Access, l1Hit bool) {
	region := a.Addr.Region()
	off := a.Addr.RegionOffset()
	bit := uint32(1) << off

	// One probe of the accumulation table: writing through the reference
	// is a Get followed by a Put of the extended footprint.
	if g, ok := s.accum.GetRef(uint64(region)); ok {
		g.observed |= bit
		return
	}
	if g, ok := s.filter.Peek(uint64(region)); ok {
		if off == g.off {
			return // repeated touch of the trigger block
		}
		// Second distinct block: promote to the accumulation table.
		s.filter.Delete(uint64(region))
		g.observed |= bit
		if k, v, ev := s.accum.Put(uint64(region), g); ev {
			s.retire(k, v)
		}
		return
	}

	// Trigger access: open a generation and predict.
	s.stats.Triggers++
	g := generation{pc: a.PC, off: off, observed: bit, predicted: s.predictFor(region, a.PC, off)}
	if _, _, ev := s.filter.Put(uint64(region), g); ev {
		// Single-access region aged out of the filter: no training.
		s.stats.FilterDrops++
	}
}

// predictFor looks up the PHT, fetches the predicted blocks and returns
// their offset mask.
func (s *SMS) predictFor(region mem.Addr, pc uint64, off int) uint32 {
	pat, ok := s.pht.GetRef(Key{PC: pc, Offset: off}.pack())
	if !ok {
		return 0
	}
	s.stats.PHTHits++
	mask := pat.mask &^ (1 << off) // the trigger block itself is the current demand miss
	if s.engine == nil {
		return mask
	}
	for o := 0; o < mem.RegionBlocks; o++ {
		if mask&(1<<o) != 0 {
			s.engine.Direct(region.BlockAt(o))
			s.stats.Predicted++
		}
	}
	return mask
}

// OnL1Evict ends the generation containing the evicted block, if any, and
// trains the PHT with its observed footprint (§2.4).
func (s *SMS) OnL1Evict(block mem.Addr) {
	region := uint64(block.Region())
	bit := uint32(1) << block.RegionOffset()
	if g, ok := s.accum.Peek(region); ok {
		if g.observed&bit != 0 {
			s.accum.Delete(region)
			s.retire(region, g)
		}
		return
	}
	if g, ok := s.filter.Peek(region); ok {
		if g.observed&bit != 0 {
			s.filter.Delete(region)
			s.stats.FilterDrops++
		}
	}
}

// retire commits a finished generation to the PHT.
func (s *SMS) retire(region uint64, g generation) {
	key := Key{PC: g.pc, Offset: g.off}.pack()
	pat, _ := s.pht.Peek(key)
	if s.cfg.UseCounters {
		for o := 0; o < mem.RegionBlocks; o++ {
			if g.observed&(1<<o) != 0 {
				if pat.Counters[o] < 3 {
					pat.Counters[o]++
				}
			} else if pat.Counters[o] > 0 {
				pat.Counters[o]--
			}
		}
	}
	pat.Bits = g.observed
	pat.mask = pat.predictMask(s.cfg.UseCounters, s.cfg.CounterThreshold)
	s.pht.Put(key, pat)
	s.stats.Trained++
}

// OnOffChipEvent implements the Prefetcher interface; SMS trains at access
// granularity so nothing happens here.
func (s *SMS) OnOffChipEvent(trace.Access, bool) {}

// WasPredicted reports whether addr falls in an active generation whose
// trigger-time PHT lookup predicted this block. Trigger accesses are never
// spatially predicted (§2.3: the first miss to each region is the
// fundamental spatial blind spot).
func (s *SMS) WasPredicted(addr mem.Addr) bool {
	region := uint64(addr.Region())
	g, ok := s.accum.Peek(region)
	if !ok {
		g, ok = s.filter.Peek(region)
	}
	return ok && g.predicted&(1<<addr.RegionOffset()) != 0
}

// Pattern returns the predicted offset mask for a lookup index, for use by
// hybrid designs that consult the PHT out of band (§3.1's naive hybrid
// fetches "elements of the predicted spatial pattern" for every temporally
// predicted trigger).
func (s *SMS) Pattern(pc uint64, offset int) (uint32, bool) {
	pat, ok := s.pht.GetRef(Key{PC: pc, Offset: offset}.pack())
	if !ok {
		return 0, false
	}
	return pat.mask, true
}

// ActiveGenerations returns the number of currently open generations.
func (s *SMS) ActiveGenerations() int { return s.filter.Len() + s.accum.Len() }

// PHTLen returns the number of learned patterns.
func (s *SMS) PHTLen() int { return s.pht.Len() }
