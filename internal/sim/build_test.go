// Build-path tests live in an external test package: the registration glue
// in the predictor packages imports sim, so package sim itself can never
// link the built-ins — only its consumers can.
package sim_test

import (
	"testing"

	"stems/internal/config"
	"stems/internal/mem"
	"stems/internal/sim"
	"stems/internal/trace"

	_ "stems/internal/predictors"
)

func testSystem() config.System {
	s := config.DefaultSystem()
	s.L1SizeBytes = 1 << 10 // 16 blocks: evictions happen fast in tests
	s.L2SizeBytes = 8 << 10
	return s
}

func read(block int) trace.Access {
	return trace.Access{Addr: mem.Addr(block * mem.BlockSize)}
}

func TestBuildAllKinds(t *testing.T) {
	kinds := sim.AllKinds()
	if len(kinds) < 7 {
		t.Fatalf("registered kinds = %v, want the seven built-ins", kinds)
	}
	// Baselines lead so reports can compute speedups against earlier rows.
	if kinds[0] != sim.KindNone || kinds[1] != sim.KindStride {
		t.Fatalf("kind order = %v, want none, stride first", kinds)
	}
	for _, kind := range kinds {
		opt := sim.DefaultOptions()
		opt.System = testSystem()
		m, err := sim.Build(kind, opt)
		if err != nil {
			t.Fatalf("Build(%s): %v", kind, err)
		}
		// A tiny run must not panic and must count accesses.
		res := m.RunBlocks(trace.NewBlockTrace([]trace.Access{read(1), read(2), read(1)}).Blocks())
		if res.Accesses != 3 {
			t.Fatalf("%s: accesses = %d", kind, res.Accesses)
		}
		if res.Prefetcher == "" {
			t.Fatalf("%s: empty prefetcher name", kind)
		}
	}
}

// TestFetchConservation: every prefetched block is eventually either
// consumed (covered) or accounted as an overprediction — across all
// predictor kinds and a mix of traces.
func TestFetchConservation(t *testing.T) {
	traces := map[string][]trace.Access{}
	// Structured: repeated region sweeps.
	var structured []trace.Access
	for pass := 0; pass < 3; pass++ {
		for r := 1; r <= 200; r++ {
			for _, off := range []int{0, 3, 7} {
				structured = append(structured, trace.Access{
					Addr: mem.Addr(r*mem.RegionSize + off*mem.BlockSize),
					PC:   0x11,
				})
			}
		}
	}
	traces["structured"] = structured
	// Adversarial: pseudo-random addresses, some writes and deps.
	var random []trace.Access
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 3000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		random = append(random, trace.Access{
			Addr:  mem.Addr(x % (1 << 26)),
			PC:    x % 97,
			Write: x%11 == 0,
			Dep:   x%5 == 0,
		})
	}
	traces["random"] = random

	for name, accs := range traces {
		for _, kind := range sim.AllKinds() {
			opt := sim.DefaultOptions()
			opt.System = testSystem()
			m, err := sim.Build(kind, opt)
			if err != nil {
				t.Fatal(err)
			}
			res := m.RunBlocks(trace.NewBlockTrace(accs).Blocks())
			if res.Fetched != res.Covered+res.Overpredicted {
				t.Errorf("%s/%s: fetched %d != covered %d + overpredicted %d",
					name, kind, res.Fetched, res.Covered, res.Overpredicted)
			}
		}
	}
}

// TestDeterministicReplay: the same trace through the same predictor gives
// bit-identical results.
func TestDeterministicReplay(t *testing.T) {
	accs := make([]trace.Access, 0, 2000)
	for r := 0; r < 100; r++ {
		for _, off := range []int{0, 5, 9} {
			accs = append(accs, trace.Access{
				Addr: mem.Addr(r*mem.RegionSize + off*mem.BlockSize), PC: 3,
			})
		}
	}
	for _, kind := range sim.AllKinds() {
		opt := sim.DefaultOptions()
		opt.System = testSystem()
		m1, _ := sim.Build(kind, opt)
		m2, _ := sim.Build(kind, opt)
		r1 := m1.RunBlocks(trace.NewBlockTrace(accs).Blocks())
		r2 := m2.RunBlocks(trace.NewBlockTrace(accs).Blocks())
		if r1 != r2 {
			t.Errorf("%s: nondeterministic results:\n%+v\n%+v", kind, r1, r2)
		}
	}
}

// TestAdaptiveBuildOption: the builders thread the adaptive flag through.
func TestAdaptiveBuildOption(t *testing.T) {
	opt := sim.DefaultOptions()
	opt.System = testSystem()
	opt.AdaptiveLookahead = true
	for _, kind := range []sim.Kind{sim.KindTMS, sim.KindSTeMS} {
		m, err := sim.Build(kind, opt)
		if err != nil {
			t.Fatal(err)
		}
		m.RunBlocks(trace.NewBlockTrace([]trace.Access{read(1), read(2)}).Blocks())
	}
}

// TestVirtualizedMetaBuild: the predictor-virtualization build path
// produces metadata traffic that shows up in the result.
func TestVirtualizedMetaBuild(t *testing.T) {
	opt := sim.DefaultOptions()
	opt.System = testSystem()
	opt.VirtualizedMeta = true
	opt.VirtualMetaCacheBytes = 1 << 10
	m, err := sim.Build(sim.KindSTeMS, opt)
	if err != nil {
		t.Fatal(err)
	}
	var accs []trace.Access
	for r := 0; r < 64; r++ {
		for _, off := range []int{0, 3} {
			accs = append(accs, trace.Access{
				Addr: mem.Addr(r*mem.RegionSize + off*mem.BlockSize), PC: 1,
			})
		}
	}
	res := m.RunBlocks(trace.NewBlockTrace(accs).Blocks())
	if res.MetaTransfers == 0 {
		t.Fatal("virtualized metadata produced no transfers")
	}
	// Without virtualization there must be none.
	opt.VirtualizedMeta = false
	m2, _ := sim.Build(sim.KindSTeMS, opt)
	if res2 := m2.RunBlocks(trace.NewBlockTrace(accs).Blocks()); res2.MetaTransfers != 0 {
		t.Fatal("dedicated-storage run counted metadata transfers")
	}
}

// TestSTeMSContributesReconStats: the recon placement counters reach the
// Result through the ResultContributor hook.
func TestSTeMSContributesReconStats(t *testing.T) {
	opt := sim.DefaultOptions()
	opt.System = testSystem()
	m, err := sim.Build(sim.KindSTeMS, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Two passes over recurring regions: the second pass replays recorded
	// sequences, exercising reconstruction.
	var accs []trace.Access
	for pass := 0; pass < 2; pass++ {
		for r := 1; r <= 100; r++ {
			for _, off := range []int{0, 2, 5} {
				accs = append(accs, trace.Access{
					Addr: mem.Addr(r*mem.RegionSize + off*mem.BlockSize), PC: 0x9,
				})
			}
		}
	}
	res := m.RunBlocks(trace.NewBlockTrace(accs).Blocks())
	if res.ReconPlacedExact+res.ReconPlacedNear+res.ReconDropped == 0 {
		t.Fatal("STeMS run contributed no reconstruction stats")
	}
	if f := res.ReconDropFraction(); f < 0 || f > 1 {
		t.Fatalf("drop fraction = %v", f)
	}
}
