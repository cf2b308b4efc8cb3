// Equivalence of the baseline miss stream: the batched analysis front end
// that the Figure 6–8 studies classify (sim.CollectMissStreamBlocks) must
// report exactly the events a Machine with no prefetcher observes. The
// Results of the per-access replay path the block kernel replaced are
// pinned in capacity_test.go.
package stems_test

import (
	"testing"

	"stems/internal/config"
	"stems/internal/mem"
	"stems/internal/sim"
	"stems/internal/trace"
	"stems/internal/workload"

	_ "stems/internal/predictors"
)

// missEvent is one off-chip read miss ('m') or L1 eviction ('e').
type missEvent struct {
	a       trace.Access
	covered bool
	evict   mem.Addr
	kind    byte
}

// missObserver records the miss and eviction events a Machine reports.
type missObserver struct {
	sim.Nop
	evs []missEvent
}

func (o *missObserver) OnL1Evict(b mem.Addr) {
	o.evs = append(o.evs, missEvent{evict: b, kind: 'e'})
}

func (o *missObserver) OnOffChipEvent(a trace.Access, covered bool) {
	o.evs = append(o.evs, missEvent{a: a, covered: covered, kind: 'm'})
}

// TestCollectMissStreamBlocksMatches pins the batched analysis front end
// to the machine it abstracts: a no-prefetch Machine replaying the same
// blocks reports the same uncovered off-chip reads and L1 evictions, in
// the same order.
func TestCollectMissStreamBlocksMatches(t *testing.T) {
	spec, err := workload.ByName("Apache")
	if err != nil {
		t.Fatal(err)
	}
	bt := trace.NewBlockTrace(spec.Generate(2, 30_000))
	sys := config.ScaledSystem()

	var collected []missEvent
	sim.CollectMissStreamBlocks(sys, bt.Blocks(),
		func(a trace.Access) { collected = append(collected, missEvent{a: a, kind: 'm'}) },
		func(b mem.Addr) { collected = append(collected, missEvent{evict: b, kind: 'e'}) })

	obs := &missObserver{}
	sim.NewMachine(sys, obs).RunBlocks(bt.Blocks())

	if len(collected) == 0 || len(collected) != len(obs.evs) {
		t.Fatalf("event counts: collector %d, machine %d", len(collected), len(obs.evs))
	}
	for i := range collected {
		if collected[i] != obs.evs[i] {
			t.Fatalf("event %d differs: collector %+v, machine %+v", i, collected[i], obs.evs[i])
		}
	}
}
