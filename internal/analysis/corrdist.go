package analysis

import (
	"stems/internal/config"
	"stems/internal/lru"
	"stems/internal/mem"
	"stems/internal/sim"
	"stems/internal/stats"
	"stems/internal/trace"
)

// CorrDist is the Figure 8 study: for every finished generation, its
// access sequence is compared against the previous occurrence of the same
// spatial lookup index. For each pair of consecutive accesses in the new
// sequence, the correlation distance is the distance between the same two
// offsets in the prior sequence: +1 is perfect repetition, anything else a
// reordering (§5.4).
type CorrDist struct {
	// Hist buckets distances in [-6, 6] (the paper's plotted range; 96% of
	// accesses fall inside it). Under/Over capture the tails.
	Hist *stats.Hist
	// Pairs counts consecutive-access pairs evaluated; Unmatched counts
	// pairs skipped because an offset was absent from the prior sequence.
	Pairs     uint64
	Unmatched uint64
	// Generations counts sequences compared (i.e. with a prior occurrence).
	Generations uint64
}

// WithinWindow returns the fraction of evaluated pairs whose |distance| is
// at most w — §5.4's reordering-window metric ("over 86% of accesses recur
// within a reordering window of two, and 92% within a window of four";
// note distance +1, perfect repetition, counts as within any window).
func (c *CorrDist) WithinWindow(w int) float64 {
	return c.Hist.CumFracWithin(w)
}

// corrObserver drives the generation tracker and the per-index sequence
// history.
type corrObserver struct {
	tracker *GenTracker
	prior   *lru.U64Map[[]int] // keyed by GenKey.pack()
	res     *CorrDist
}

func (o *corrObserver) Name() string                { return "corrdist-observer" }
func (o *corrObserver) OnAccess(trace.Access, bool) {}
func (o *corrObserver) OnL1Evict(block mem.Addr)    { o.tracker.OnEvict(block) }
func (o *corrObserver) OnOffChipEvent(a trace.Access, covered bool) {
	if a.Write {
		return
	}
	o.tracker.OnMiss(a)
}

// compare scores one finished generation against the prior sequence for
// its index.
func (o *corrObserver) compare(g Generation) {
	prior, ok := o.prior.Get(g.Key.pack())
	if ok && len(g.Seq) >= 2 {
		o.res.Generations++
		pos := make(map[int]int, len(prior))
		for i, off := range prior {
			pos[off] = i
		}
		for i := 0; i+1 < len(g.Seq); i++ {
			pa, okA := pos[g.Seq[i]]
			pb, okB := pos[g.Seq[i+1]]
			if !okA || !okB {
				o.res.Unmatched++
				continue
			}
			o.res.Pairs++
			o.res.Hist.Add(pb - pa)
		}
	}
	o.prior.Put(g.Key.pack(), g.Seq)
}

// CorrDistances runs the Figure 8 analysis over one block-trace stream,
// flushing the generations still open at its end.
func CorrDistances(sys config.System, bs trace.BlockSource) *CorrDist {
	obs := &corrObserver{
		tracker: NewGenTracker(),
		prior:   lru.NewU64[[]int](1 << 16),
		res:     &CorrDist{Hist: stats.NewHist(-32, 32)},
	}
	obs.tracker.OnEnd = obs.compare
	sim.NewMachine(sys, obs).RunBlocks(bs)
	obs.tracker.Flush()
	return obs.res
}
