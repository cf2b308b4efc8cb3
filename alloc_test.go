// Allocation-regression tests: the replay loop is the simulator's hot path
// and is required to be allocation-free in steady state — predictor tables
// index through flat probe arrays (internal/flat) that grow during warm-up
// and then stay put, stream/SVB storage is pooled, and generation and
// correlation records are recycled. A regression here silently taxes every
// figure, sweep, and benchmark, so it fails loudly instead.
package stems_test

import (
	"slices"
	"testing"

	"stems/internal/allocgate"
	"stems/internal/config"
	"stems/internal/lru"
	"stems/internal/mem"
	"stems/internal/sim"
	"stems/internal/trace"
	"stems/internal/workload"
)

// gateOptions is the scaled system with every predictor table and
// miss-order ring small enough that a gateWarmup-access DB2 trace fills it
// to its bound. Tables grow as a run inserts, up to their configured
// capacity, so a gate is only exact once nothing can grow: at the paper's
// sizes a 200k-access warm-up leaves the CMOB and RMOB doubling for
// hundreds of thousands of accesses more, and DB2 trains only a few dozen
// PST and PHT keys.
func gateOptions() sim.Options {
	opt := sim.DefaultOptions()
	opt.System = config.ScaledSystem()
	opt.SMS.PHTEntries = 16
	opt.TMS.CMOBEntries = 8 << 10
	opt.Epoch.TableEntries = 64
	opt.STeMS.RMOBEntries = 8 << 10
	opt.STeMS.PSTEntries = 32
	return opt
}

// gateWarmup is the length of the DB2 trace the gated machines replay
// twice before they are measured: the first pass fills every table, the
// second lets every stream queue reach its high-water mark.
const gateWarmup = 200_000

// warmMachine builds a machine of the given kind under gateOptions and
// warms it on the gateWarmup DB2 trace, which it returns.
func warmMachine(t *testing.T, kind sim.Kind) (*sim.Machine, *trace.BlockTrace) {
	t.Helper()
	spec, err := workload.ByName("DB2")
	if err != nil {
		t.Fatal(err)
	}
	bt := spec.GenerateBlocks(1, gateWarmup)
	m, err := sim.Build(kind, gateOptions())
	if err != nil {
		t.Fatal(err)
	}
	var b trace.Block
	for pass := 0; pass < 2; pass++ {
		for cur := bt.Blocks(); cur.NextBlock(&b); {
			m.StepBlock(&b)
		}
	}
	return m, bt
}

// ownedBlocks copies every block of bt out of its cursor, so a gate can
// step the same blocks over and over with no cursor in the measured loop.
func ownedBlocks(bt *trace.BlockTrace) []*trace.Block {
	var out []*trace.Block
	var b trace.Block
	for cur := bt.Blocks(); cur.NextBlock(&b); {
		n := b.N
		out = append(out, &trace.Block{
			N:         n,
			Addrs:     slices.Clone(b.Addrs[:n]),
			PCDict:    slices.Clone(b.PCDict),
			PCIdx:     slices.Clone(b.PCIdx[:n]),
			Think:     slices.Clone(b.Think[:n]),
			WriteBits: slices.Clone(b.WriteBits),
			DepBits:   slices.Clone(b.DepBits),
		})
	}
	return out
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
			m, bt := warmMachine(t, kind)
			blocks := ownedBlocks(bt)
			cur := 0
			if n := allocgate.Mallocs(50, func() {
				m.StepBlock(blocks[cur%len(blocks)])
				cur++
			}); n != 0 {
				t.Fatalf("%s: Machine.StepBlock allocated %d objects in 50 steady-state blocks, want 0", kind, n)
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
	blocks := ownedBlocks(spec.GenerateBlocks(1, gateWarmup))
	opt := gateOptions()
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
	// Warm every machine to its high-water mark with three full replays.
	for pass := 0; pass < 3; pass++ {
		for _, b := range blocks {
			for _, m := range machines {
				m.StepBlock(b)
			}
		}
	}
	cur := 0
	if n := allocgate.Mallocs(50, func() {
		b := blocks[cur%len(blocks)]
		for _, m := range machines {
			m.StepBlock(b)
		}
		cur++
	}); n != 0 {
		t.Fatalf("fused replay allocated %d objects in 50 steady-state block rounds, want 0", n)
	}
}

// TestBlockTraceCursorAllocs gates the resident-trace cursor: draining it
// allocates the cursor and its widening scratch once, and nothing per
// block, whichever encoding each block was packed in.
func TestBlockTraceCursorAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	// Blocks of every shape: DB2 (narrow addresses, PCs and think), then
	// scattered addresses and think values that stay at full width, then
	// one PC and a partial tail.
	spec, err := workload.ByName("DB2")
	if err != nil {
		t.Fatal(err)
	}
	accs := spec.Generate(1, 3*trace.BlockCap)
	for i := 0; i < 2*trace.BlockCap+100; i++ {
		a := accs[i%len(accs)]
		a.Addr = mem.Addr(uint64(i)*0x9E3779B97F4A7C15) >> 8
		a.Think = uint16(i % 1000)
		if i >= trace.BlockCap {
			a.PC = 7
		}
		accs = append(accs, a)
	}
	bt := trace.NewBlockTrace(accs)
	var b trace.Block
	drain := func(blocks int) func() {
		return func() {
			cur := bt.Blocks()
			for i := 0; i < blocks && cur.NextBlock(&b); i++ {
			}
		}
	}
	first := allocgate.Mallocs(10, drain(1))
	all := allocgate.Mallocs(10, drain(bt.NumBlocks()))
	if first > 20 || all != first {
		t.Fatalf("10 cursors allocated %d objects reading one block and %d draining %d blocks, want at most 20 and equal", first, all, bt.NumBlocks())
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
	if n := allocgate.Mallocs(100, func() {
		for i := 0; i < 1000; i++ {
			if _, ok := m.Get(k % (2 * capacity)); !ok {
				m.Put(k%(2*capacity), k) // insert with eviction
			}
			k++
		}
	}); n != 0 {
		t.Fatalf("lru.U64Map Get/Put allocated %d objects in 100 runs of 1000 ops at capacity, want 0", n)
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
	if n := allocgate.Mallocs(100, func() {
		for i := 0; i < 256; i++ {
			m.Delete(k % capacity)
			m.Put(k%capacity, int(k))
			k++
		}
	}); n != 0 {
		t.Fatalf("lru.U64Map Delete/Put allocated %d objects in 100 runs of 256 ops, want 0", n)
	}
}
