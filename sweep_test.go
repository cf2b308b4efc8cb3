package stems_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"stems"
)

// sweepGrid builds a small cross-product grid: three predictors over two
// workloads at reduced trace lengths.
func sweepGrid(t *testing.T) []*stems.Runner {
	t.Helper()
	var grid []*stems.Runner
	for _, wl := range []string{"DB2", "em3d"} {
		for _, pf := range []string{"stride", "tms", "stems"} {
			r, err := stems.New(
				stems.WithWorkload(wl),
				stems.WithPredictor(pf),
				stems.WithSystem(stems.ScaledSystem()),
				stems.WithAccesses(15_000),
			)
			if err != nil {
				t.Fatal(err)
			}
			grid = append(grid, r)
		}
	}
	return grid
}

// TestSweepDeterministic: the same grid produces byte-identical results at
// parallelism 1 and N — run under -race in CI, this is the ordering and
// data-race acceptance test.
func TestSweepDeterministic(t *testing.T) {
	ctx := context.Background()
	serial, err := stems.Sweep(ctx, sweepGrid(t), stems.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	wide, err := stems.Sweep(ctx, sweepGrid(t), stems.WithParallelism(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(wide) {
		t.Fatalf("result lengths differ: %d vs %d", len(serial), len(wide))
	}
	for i := range serial {
		if serial[i] != wide[i] {
			t.Fatalf("grid[%d]: parallelism changed the result:\nserial %+v\nwide   %+v",
				i, serial[i], wide[i])
		}
	}
}

func TestSweepProgress(t *testing.T) {
	grid := sweepGrid(t)
	var mu sync.Mutex
	var seen []string
	last := 0
	results, err := stems.Sweep(context.Background(), grid,
		stems.WithParallelism(4),
		stems.WithProgress(func(completed, total int, label string, res stems.Result) {
			mu.Lock()
			defer mu.Unlock()
			if completed != last+1 || total != len(grid) {
				t.Errorf("progress (%d,%d) after %d", completed, total, last)
			}
			last = completed
			seen = append(seen, label)
			if res.Accesses == 0 {
				t.Errorf("progress for %s carried an empty result", label)
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(grid) || last != len(grid) || len(seen) != len(grid) {
		t.Fatalf("progress saw %d/%d completions", last, len(grid))
	}
}

// TestSweepRunResult: the per-index callback fires exactly once per
// grid slot with the result Sweep later returns for that slot, and each
// run's own WithRunProgress receives a monotonic access count that ends
// at exactly that run's trace length.
func TestSweepRunResult(t *testing.T) {
	const accesses = 10_000
	var mu sync.Mutex
	var grid []*stems.Runner
	runProgress := make([][]uint64, 3)
	for i, pf := range []string{"stride", "sms", "stems"} {
		grid = append(grid, sweepPoint(t, pf,
			stems.WithAccesses(accesses),
			stems.WithRunProgress(func(done uint64) {
				mu.Lock()
				runProgress[i] = append(runProgress[i], done)
				mu.Unlock()
			})))
	}
	byIndex := make(map[int]stems.Result)
	results, err := stems.Sweep(context.Background(), grid,
		stems.WithParallelism(4),
		stems.WithRunResult(func(i int, res stems.Result) {
			mu.Lock()
			defer mu.Unlock()
			if _, dup := byIndex[i]; dup {
				t.Errorf("grid[%d] delivered twice", i)
			}
			byIndex[i] = res
		}))
	if err != nil {
		t.Fatal(err)
	}
	if len(byIndex) != len(grid) {
		t.Fatalf("callback saw %d runs, want %d", len(byIndex), len(grid))
	}
	for i, res := range results {
		if byIndex[i] != res {
			t.Errorf("grid[%d]: callback result differs from returned result", i)
		}
	}
	for i, obs := range runProgress {
		if len(obs) == 0 {
			t.Fatalf("grid[%d] saw no progress", i)
		}
		for k := 1; k < len(obs); k++ {
			if obs[k] <= obs[k-1] {
				t.Errorf("grid[%d] progress not monotonic: %d after %d", i, obs[k], obs[k-1])
			}
		}
		if final := obs[len(obs)-1]; final != accesses {
			t.Errorf("grid[%d] final progress = %d, want %d", i, final, accesses)
		}
	}
}

// sweepPoint builds one grid point over the DB2/seed-1/8k-access trace;
// extra options layer predictor knobs, lengths, or callbacks on top.
func sweepPoint(t *testing.T, predictor string, extra ...stems.Option) *stems.Runner {
	t.Helper()
	opts := append([]stems.Option{
		stems.WithWorkload("DB2"),
		stems.WithPredictor(predictor),
		stems.WithAccesses(8_000),
		stems.WithSystem(stems.ScaledSystem()),
	}, extra...)
	r, err := stems.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestSweepEveryPredictorPair runs every pair of registered predictors
// over one trace through Sweep and requires each run to match its solo
// Run exactly, serial and parallel. Under -race it additionally proves
// runs sharing one arena trace share no mutable state.
func TestSweepEveryPredictorPair(t *testing.T) {
	preds := stems.Predictors()
	solo := make(map[string]stems.Result, len(preds))
	for _, p := range preds {
		res, err := sweepPoint(t, p).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		solo[p] = res
	}
	for i, a := range preds {
		for _, b := range preds[i+1:] {
			for _, parallelism := range []int{1, 2} {
				arena := stems.NewArena()
				grid := []*stems.Runner{
					sweepPoint(t, a, stems.WithSharedTrace(arena)),
					sweepPoint(t, b, stems.WithSharedTrace(arena)),
				}
				res, err := stems.Sweep(context.Background(), grid,
					stems.WithParallelism(parallelism))
				if err != nil {
					t.Fatalf("%s+%s parallelism=%d: %v", a, b, parallelism, err)
				}
				if res[0] != solo[a] || res[1] != solo[b] {
					t.Errorf("%s+%s parallelism=%d: swept pair diverged from solo runs", a, b, parallelism)
				}
			}
		}
	}
}

func TestSweepNilRunner(t *testing.T) {
	if _, err := stems.Sweep(context.Background(), []*stems.Runner{nil}); err == nil {
		t.Fatal("nil runner accepted")
	}
}

func TestSweepCancellation(t *testing.T) {
	// A large grid of long runs; cancel shortly after starting. The sweep
	// must return promptly with context.Canceled instead of finishing the
	// grid.
	var grid []*stems.Runner
	for i := 0; i < 32; i++ {
		r, err := stems.New(
			stems.WithWorkload("DB2"),
			stems.WithPredictor("stems"),
			stems.WithSystem(stems.ScaledSystem()),
			stems.WithSeed(int64(i+1)),
		)
		if err != nil {
			t.Fatal(err)
		}
		grid = append(grid, r)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := stems.Sweep(ctx, grid, stems.WithParallelism(2))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Generous bound: a full 32-run grid takes far longer than this.
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// TestSweepRunErrorPropagates: a failing run cancels the sweep and
// surfaces its error.
func TestSweepRunErrorPropagates(t *testing.T) {
	bad, err := stems.New(
		stems.WithBlockSourceFunc(func() stems.BlockSource { return nil }), // Run fails
		stems.WithPredictor("none"),
	)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := stems.New(
		stems.WithWorkload("DB2"),
		stems.WithPredictor("none"),
		stems.WithAccesses(1_000),
		stems.WithSystem(stems.ScaledSystem()),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stems.Sweep(context.Background(), []*stems.Runner{bad, ok}); err == nil {
		t.Fatal("sweep swallowed a run error")
	}
}

// TestSweepSharedTraceMatchesPerRunGeneration asserts that a sweep grid
// sharing one trace arena produces results identical to runners that each
// regenerate the workload trace — and that the arena generated the trace
// exactly once for the whole grid.
func TestSweepSharedTraceMatchesPerRunGeneration(t *testing.T) {
	mods := []func(*stems.Options){
		func(o *stems.Options) { o.STeMS.Lookahead = 4 },
		func(o *stems.Options) { o.STeMS.Lookahead = 8 },
		func(o *stems.Options) { o.STeMS.RMOBEntries = 4 << 10 },
	}
	build := func(arena *stems.Arena, mod func(*stems.Options)) *stems.Runner {
		opts := []stems.Option{
			stems.WithWorkload("DB2"),
			stems.WithAccesses(20_000),
			stems.WithSystem(stems.ScaledSystem()),
			stems.WithConfigure(mod),
		}
		if arena != nil {
			opts = append(opts, stems.WithSharedTrace(arena))
		}
		r, err := stems.New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	arena := stems.NewArena()
	shared := make([]*stems.Runner, len(mods))
	solo := make([]*stems.Runner, len(mods))
	for i, mod := range mods {
		shared[i] = build(arena, mod)
		solo[i] = build(nil, mod)
	}

	// Every runner resolves the trace itself, so the arena sees one
	// generation and a hit per remaining grid point.
	sharedRes, err := stems.Sweep(context.Background(), shared)
	if err != nil {
		t.Fatal(err)
	}
	soloRes, err := stems.Sweep(context.Background(), solo)
	if err != nil {
		t.Fatal(err)
	}
	for i := range mods {
		if sharedRes[i] != soloRes[i] {
			t.Errorf("point %d: shared-trace result %+v != per-run result %+v",
				i, sharedRes[i], soloRes[i])
		}
	}
	if st := arena.Stats(); st.Generations != 1 || st.Hits != len(mods)-1 {
		t.Errorf("arena stats = %+v, want 1 generation and %d hits", st, len(mods)-1)
	}
}
