// Allocation-regression tests: the replay loop is the simulator's hot path
// and is required to be allocation-free in steady state — predictor tables
// index through flat probe arrays (internal/flat) that grow during warm-up
// and then stay put, stream/SVB storage is pooled, and generation and
// correlation records are recycled. A regression here silently taxes every
// figure, sweep, and benchmark, so it fails loudly instead.
package stems_test

import (
	"testing"

	"stems/internal/config"
	"stems/internal/lru"
	"stems/internal/sim"
	"stems/internal/trace"
	"stems/internal/workload"
)

// warmSTeMSMachine builds a STeMS machine and replays one full DB2 trace
// through it so every table is at capacity, every pool is populated, and
// every scratch buffer has reached its high-water mark.
func warmSTeMSMachine(t *testing.T) (*sim.Machine, []trace.Access) {
	return warmMachine(t, sim.KindSTeMS)
}

// warmMachine is warmSTeMSMachine for any registered kind.
func warmMachine(t *testing.T, kind sim.Kind) (*sim.Machine, []trace.Access) {
	t.Helper()
	spec, err := workload.ByName("DB2")
	if err != nil {
		t.Fatal(err)
	}
	accs := spec.Generate(1, 200_000)
	opt := sim.DefaultOptions()
	opt.System = config.ScaledSystem()
	m, err := sim.Build(kind, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range accs {
		m.Step(a)
	}
	return m, accs
}

// TestMachineStepZeroAlloc asserts that the steady-state replay loop — the
// full STeMS predictor behind Machine.Step — performs zero heap
// allocations per access.
func TestMachineStepZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	m, accs := warmSTeMSMachine(t)
	pos := 0
	const stepsPerRun = 1000
	avg := testing.AllocsPerRun(50, func() {
		for i := 0; i < stepsPerRun; i++ {
			m.Step(accs[pos%len(accs)])
			pos++
		}
	})
	if avg != 0 {
		t.Fatalf("Machine.Step allocated %.3f objects per %d steady-state steps, want 0",
			avg, stepsPerRun)
	}
}

// TestStepBlockZeroAlloc asserts the batched block kernel stays
// allocation-free in steady state for every registered kind: replaying
// arena-cached columnar blocks through a warm machine must not touch the
// heap, or the sweep and figure paths (which ride RunBlocks) silently
// regress.
func TestStepBlockZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	for _, kind := range sim.AllKinds() {
		t.Run(string(kind), func(t *testing.T) {
			m, accs := warmMachine(t, kind)
			bt := trace.NewBlockTrace(accs)
			cur := 0
			blocks := make([]*trace.Block, bt.NumBlocks())
			for i := range blocks {
				blocks[i] = bt.BlockAt(i)
			}
			avg := testing.AllocsPerRun(50, func() {
				m.StepBlock(blocks[cur%len(blocks)])
				cur++
			})
			if avg != 0 {
				t.Fatalf("%s: Machine.StepBlock allocated %.3f objects per steady-state block, want 0", kind, avg)
			}
		})
	}
}

// TestFusedStepZeroAlloc gates one columnar block stepped through K
// heterogeneous warm machines back to back at zero heap allocations per
// block round: the steady state of a sweep or figure panel whose runs
// replay one resident trace, block for block.
func TestFusedStepZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	spec, err := workload.ByName("DB2")
	if err != nil {
		t.Fatal(err)
	}
	bt := trace.NewBlockTrace(spec.Generate(1, 150_000))
	opt := sim.DefaultOptions()
	opt.System = config.ScaledSystem()
	small := opt
	small.STeMS.RMOBEntries = 4096
	machines := make([]*sim.Machine, 0, 4)
	for _, p := range []struct {
		kind sim.Kind
		opt  sim.Options
	}{
		{sim.KindStride, opt},
		{sim.KindSMS, opt},
		{sim.KindSTeMS, opt},
		{sim.KindSTeMS, small},
	} {
		m, err := sim.Build(p.kind, p.opt)
		if err != nil {
			t.Fatal(err)
		}
		machines = append(machines, m)
	}
	blocks := make([]*trace.Block, bt.NumBlocks())
	for i := range blocks {
		blocks[i] = bt.BlockAt(i)
	}
	// Warm every machine to its high-water mark with one full replay.
	for _, b := range blocks {
		for _, m := range machines {
			m.StepBlock(b)
		}
	}
	cur := 0
	avg := testing.AllocsPerRun(50, func() {
		b := blocks[cur%len(blocks)]
		for _, m := range machines {
			m.StepBlock(b)
		}
		cur++
	})
	if avg != 0 {
		t.Fatalf("fused replay allocated %.3f objects per steady-state block round, want 0", avg)
	}
}

// TestLRUMapZeroAlloc asserts that lru.U64Map Get/Put perform no
// allocations once the table has grown to capacity — the mix includes hits
// (recency refresh), misses, and inserts that force LRU eviction.
func TestLRUMapZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	const capacity = 1024
	m := lru.NewU64[uint64](capacity)
	for k := uint64(0); k < capacity; k++ {
		m.Put(k, k)
	}
	k := uint64(0)
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 1000; i++ {
			if _, ok := m.Get(k % (2 * capacity)); !ok {
				m.Put(k%(2*capacity), k) // insert with eviction
			}
			k++
		}
	})
	if avg != 0 {
		t.Fatalf("lru.U64Map Get/Put allocated %.3f objects per 1000 ops at capacity, want 0", avg)
	}
}

// TestLRUMapDeleteZeroAlloc covers the Delete/reinsert cycle the STeMS AGT
// drives on every generation retirement.
func TestLRUMapDeleteZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	const capacity = 64
	m := lru.NewU64[int](capacity)
	for k := uint64(0); k < capacity; k++ {
		m.Put(k, int(k))
	}
	k := uint64(0)
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 256; i++ {
			m.Delete(k % capacity)
			m.Put(k%capacity, int(k))
			k++
		}
	})
	if avg != 0 {
		t.Fatalf("lru.U64Map Delete/Put allocated %.3f objects per 256 ops, want 0", avg)
	}
}
