package main

import (
	"context"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"stems"
	"stems/internal/sim"
)

// setupRepeats is how many times a run repeats its set-up; setup_s is
// the median.
const setupRepeats = 7

// sweepTraces lists the sweep grid's distinct workloads in grid order.
func sweepTraces(cells []sweepCell) []string {
	var out []string
	seen := make(map[string]bool)
	for _, c := range cells {
		if !seen[c.Workload] {
			seen[c.Workload] = true
			out = append(out, c.Workload)
		}
	}
	return out
}

// fillArena generates every trace of the grid into a fresh arena.
func fillArena(seed int64, wls []string) (*stems.Arena, error) {
	a := stems.NewArena()
	for _, w := range wls {
		spec, err := stems.WorkloadByName(w)
		if err != nil {
			return nil, err
		}
		ts, n := traceSeed(seed, w), spec.DefaultAccesses
		a.Get(w, ts, n, func() []stems.Access { return spec.Generate(ts, n) })
	}
	return a, nil
}

// runSweep is the local workload: one caller in a closed loop, each
// iteration one stems.Sweep over the whole grid at parallelism nproc,
// replaying traces already resident in a shared arena.
func runSweep(ctx context.Context, b *bench) (*outcome, error) {
	o := newOutcome()
	cells := sweepCells()
	wls := sweepTraces(cells)

	var arena *stems.Arena
	var setups []float64
	for k := 0; k < setupRepeats; k++ {
		arena = nil
		runtime.GC()
		c := processCPU()
		a, err := fillArena(b.seed, wls)
		if err != nil {
			return nil, err
		}
		setups = append(setups, (processCPU() - c).Seconds())
		arena = a
	}
	grid := make([]*stems.Runner, len(cells))
	for i, c := range cells {
		r, err := stems.FromSpec(c.spec(traceSeed(b.seed, c.Workload)), stems.WithSharedTrace(arena))
		if err != nil {
			return nil, err
		}
		grid[i] = r
	}

	var lat, lags []time.Duration
	var accesses uint64
	var first []stems.Result
	cpu0 := processCPU()
	steal := startSteal()
	t0 := time.Now()
	prev := t0
	for len(lat) == 0 || time.Since(t0) < b.seconds {
		s := time.Now()
		lags = append(lags, s.Sub(prev))
		res, err := stems.Sweep(ctx, grid, stems.WithParallelism(b.nproc))
		prev = time.Now()
		o.attempted++
		if err != nil {
			if ctx.Err() != nil {
				return nil, err
			}
			o.failed++
			o.notef("sweep failed: %v", err)
			continue
		}
		lat = append(lat, prev.Sub(s))
		for _, r := range res {
			accesses += r.Accesses
		}
		if first == nil {
			first = res
		} else if err := sameResults(first, res); err != nil {
			o.wrongf("repeated sweep differs: %v", err)
		}
	}
	wall := time.Since(t0)
	cpu := processCPU() - cpu0
	o.metrics["bench.steal_frac"] = steal.share()
	if first == nil {
		return nil, fmt.Errorf("no sweep completed")
	}
	rss, err := peakRSSMB("/proc/self/status")
	if err != nil {
		return nil, err
	}
	arenaStats := arena.Stats()

	digests := make([]string, len(first))
	for i, r := range first {
		digests[i] = resultDigest(r)
	}
	if want, ok := b.rec.Sweep[seedKey(b.seed)]; ok {
		if err := compareDigests("sweep cell", digests, want); err != nil {
			o.wrongf("%v", err)
		}
		o.notef("output check: %d cells against recorded digests", len(want))
	} else if !b.traced {
		if err := checkSweepSample(b, cells, first, o); err != nil {
			return nil, err
		}
	}

	lms := durationsMS(lat)
	o.notef("sweeps=%d cells=%d accesses/sweep=%d wall_s=%.3f", len(lat), len(cells), accesses/uint64(len(lat)), wall.Seconds())
	o.metrics["setup_s"] = median(setups)
	o.metrics["cpu_ms_per_job"] = ms(cpu) / float64(len(lat))
	o.metrics["wall.accesses_per_s"] = float64(accesses) / wall.Seconds()
	o.metrics["wall.job_p50_ms"] = median(lms)
	o.metrics["wall.job_tail_ms"] = percentile(lms, 1)
	o.metrics["wall.max_rate_jobs_per_s"] = float64(len(lat)) / wall.Seconds()
	o.metrics["peak_rss_mb"] = rss
	o.metrics["loadgen.lag_ms.p99"] = percentile(durationsMS(lags), 0.99)
	o.metrics["trace.arena_hit_ratio"] = ratio(float64(arenaStats.Hits), float64(arenaStats.Hits+arenaStats.Generations))
	if !b.traced {
		return o, nil
	}
	return o, tracedSweep(ctx, b, o, cells, first, median(lms))
}

// sameResults reports the first grid index where two sweeps differ.
func sameResults(a, b []stems.Result) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d results, want %d", len(b), len(a))
	}
	for i := range a {
		if resultDigest(a[i]) != resultDigest(b[i]) {
			return fmt.Errorf("cell %d: %v, want %v", i, b[i], a[i])
		}
	}
	return nil
}

// sweepReplay groups the kept cells of the grid by trace for the
// replay; idx[t][k] is the grid index of trace t's run k.
func sweepReplay(seed int64, cells []sweepCell, keep func(i int) bool) ([]replayTrace, [][]int, error) {
	var specs []stems.RunSpec
	var grid []int
	for i, c := range cells {
		if keep(i) {
			specs = append(specs, c.spec(traceSeed(seed, c.Workload)))
			grid = append(grid, i)
		}
	}
	traces, idx, err := groupByTrace(specs)
	for t := range idx {
		for k, i := range idx[t] {
			idx[t][k] = grid[i]
		}
	}
	return traces, idx, err
}

// compareReplay checks replayed results against the sweep's.
func compareReplay(o *outcome, results [][]sim.Result, idx [][]int, want []stems.Result) int {
	n := 0
	for t := range idx {
		for k, i := range idx[t] {
			n++
			if resultDigest(results[t][k]) != resultDigest(want[i]) {
				o.wrongf("sweep cell %d: fused Sweep %v, per-machine replay %v", i, want[i], results[t][k])
			}
		}
	}
	return n
}

// checkSweepSample replays one cell per (workload, system) pair — the
// predictor rotating with the seed — machine by machine and compares it
// with the fused Sweep. It runs after the timed window.
func checkSweepSample(b *bench, cells []sweepCell, first []stems.Result, o *outcome) error {
	traces, idx, err := sweepReplay(b.seed, cells, func(i int) bool {
		return i%len(sweepPredictors) == int(b.seed+int64(i/len(sweepPredictors)))%len(sweepPredictors)
	})
	if err != nil {
		return err
	}
	var ks kernelStats
	results, err := replay(nil, "", traces, &ks, false)
	if err != nil {
		return err
	}
	n := compareReplay(o, results, idx, first)
	o.notef("output check: %d sampled cells replayed per machine against the fused Sweep", n)
	return nil
}

// tracedSweep replays every cell machine by machine through the exported
// kernel calls with one span per call, then again untraced for the
// tracing overhead, and sends a sample of cells through a stemsd round
// trip (compute, disk-tier read after a restart, memory-tier read) so
// the service layers are measured on the sweep's own runs.
func tracedSweep(ctx context.Context, b *bench, o *outcome, cells []sweepCell, first []stems.Result, sweepWall float64) error {
	traces, idx, err := sweepReplay(b.seed, cells, func(int) bool { return true })
	if err != nil {
		return err
	}
	var ks kernelStats
	results, err := replay(b.tr, "sweep", traces, &ks, true)
	if err != nil {
		return err
	}
	n := compareReplay(o, results, idx, first)
	o.notef("output check: %d cells of the traced per-machine replay against the fused Sweep", n)
	var plain kernelStats
	if _, err := replay(nil, "", traces, &plain, true); err != nil {
		return err
	}
	o.metrics["bench.tracing_overhead_frac"] = ks.wall.Seconds()/plain.wall.Seconds() - 1
	kernelMetrics(o, b.tr, &ks)
	o.metrics["stems.sweep_busy_frac"] = ks.busy.Seconds() / (float64(b.nproc) * sweepWall / 1e3)
	tot := b.tr.totals()
	if r := tot["replay"]; r != nil {
		o.metrics["bench.unattributed_frac"] = float64(r.Self) / float64(r.Dur)
	}

	var specs []stems.RunSpec
	var want []stems.Result
	for p := range sweepPredictors {
		i := ((p+int(b.seed))%8)*len(sweepPredictors) + p
		specs = append(specs, cells[i].spec(traceSeed(b.seed, cells[i].Workload)))
		want = append(want, first[i])
	}
	so, err := roundTrip(ctx, b, stems.JobSpec{Runs: specs}, func(r jobRec) error {
		if len(r.results) != len(want) {
			return fmt.Errorf("%d results for %d runs", len(r.results), len(want))
		}
		for i, res := range r.results {
			if wireDigest(res) != resultDigest(want[i]) {
				return fmt.Errorf("run %d (%s): daemon %v, Sweep %v", i, specs[i].Label, res.Engine(), want[i])
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, w := range so.wrong {
		o.wrongf("%s", w)
	}
	serveMetrics(o, so, b.tr)
	return nil
}

// processCPU is the benchmark process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
