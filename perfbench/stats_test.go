package main

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"stems/internal/sim"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestTailQuantileLeavesTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 5, ok: false},
		{n: 20, want: 0.5, ok: true},
		{n: 100, want: 0.9, ok: true},
		{n: 999, want: 0.9, ok: true}, // p99 leaves 9
		{n: 1000, want: 0.99, ok: true},
		{n: 10000, want: 0.999, ok: true},
	}
	for _, c := range cases {
		q, ok := tailQuantile(c.n, 0.5, 0.9, 0.99, 0.999)
		if ok != c.ok || q != c.want {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v, %v", c.n, q, ok, c.want, c.ok)
		}
		if ok && beyond(c.n, q) < minBeyond {
			t.Errorf("n=%d q=%v leaves %d beyond", c.n, q, beyond(c.n, q))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted input
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if median([]float64{4, 1, 3, 2}) != 2.5 {
		t.Errorf("even-length median")
	}
}

// The quartiles must match Python's statistics.quantiles(xs, n=4), the
// rule the benchmark's spreads are judged by (values computed there).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.1, 1.2, 9.9, 4.4}, 1.675, 8.525},
		{[]float64{5, 1}, 0, 6},
	}
	for _, c := range cases {
		q1, q3, ok := quartiles(c.xs)
		if !ok || !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	spread := quartileSpread([]float64{10.2, 11.1, 9.8, 10.5, 10.0, 12.3, 9.9, 10.4, 10.1, 10.7})
	if !near(spread, 0.0800970873786407) {
		t.Errorf("quartileSpread = %v", spread)
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Errorf("quartiles of one sample")
	}
}

// virtualClock advances only when a worker sleeps or a job "runs".
type virtualClock struct {
	mu sync.Mutex
	t  time.Duration
}

func (c *virtualClock) now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *virtualClock) sleepUntil(_ context.Context, t time.Duration) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = max(c.t, t)
	return nil
}

func (c *virtualClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t += d
}

// A job that takes longer than the gap to the next arrival delays it;
// due-time latency charges that wait to the delayed job, and the lateness
// shows as generator lag.
func TestOpenLoopChargesStallsFromDueTime(t *testing.T) {
	clk := &virtualClock{}
	ms := time.Millisecond
	arr := []arrival{{due: 0, keys: []int{0}}, {due: 10 * ms, keys: []int{1}}, {due: 20 * ms, keys: []int{2}}, {due: 100 * ms, keys: []int{3}}}
	recs := openLoop(context.Background(), clk, arr, 1, time.Second, func(context.Context, arrival) jobRec {
		clk.advance(25 * ms)
		return jobRec{}
	})
	wantLat := []time.Duration{25 * ms, 40 * ms, 55 * ms, 25 * ms}
	wantLag := []time.Duration{0, 15 * ms, 30 * ms, 0}
	for i, r := range recs {
		if r.latency() != wantLat[i] || r.lag != wantLag[i] {
			t.Errorf("job %d: latency %v lag %v, want %v %v", i, r.latency(), r.lag, wantLat[i], wantLag[i])
		}
	}
	if dueLatency(10*ms, 35*ms) != 25*ms {
		t.Errorf("dueLatency")
	}
}

func TestClosedLoopStopsAtDeadlineAndCounts(t *testing.T) {
	clk := &virtualClock{}
	recs := closedLoop(context.Background(), clk, 1, 100*time.Millisecond, time.Second, counter(-1), func(context.Context, int) jobRec {
		clk.advance(30 * time.Millisecond)
		return jobRec{}
	})
	if len(recs) != 4 { // sent at 0, 30, 60, 90
		t.Fatalf("%d jobs, want 4", len(recs))
	}
	for _, r := range recs {
		if r.latency() != 30*time.Millisecond {
			t.Errorf("latency %v", r.latency())
		}
	}
}

func TestInputsAreSeedDeterministic(t *testing.T) {
	a := hitArrivals(5, "window", 980, 350, 2*time.Second)
	b := hitArrivals(5, "window", 980, 350, 2*time.Second)
	c := hitArrivals(6, "window", 980, 350, 2*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different arrivals")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatalf("different seeds, same arrivals")
	}
	scrapes, sweeps := 0, 0
	for i, x := range a {
		if i > 0 && x.due < a[i-1].due {
			t.Fatalf("arrivals out of order at %d", i)
		}
		switch len(x.keys) {
		case 0:
			scrapes++
		case hitSweepRuns:
			sweeps++
		}
	}
	if scrapes != 2 || sweeps == 0 || len(a) < 500 || len(a) > 900 {
		t.Errorf("%d arrivals, %d scrapes, %d sweep reads", len(a), scrapes, sweeps)
	}
	_, k1 := hitKeySet(5)
	_, k2 := hitKeySet(5)
	if len(k1) != 980 || !reflect.DeepEqual(k1, k2) {
		t.Errorf("key set: %d keys, deterministic %v", len(k1), reflect.DeepEqual(k1, k2))
	}
	if !reflect.DeepEqual(gridJob(5, 7), gridJob(5, 7)) || reflect.DeepEqual(gridJob(5, 7), gridJob(6, 7)) {
		t.Errorf("grid jobs are not a function of the seed")
	}
	if traceSeed(5, "DB2") == traceSeed(6, "DB2") || traceSeed(5, "DB2") < 1 {
		t.Errorf("trace seeds")
	}
}

func TestOutputCheckRejectsPerturbedResult(t *testing.T) {
	base := sim.Result{
		Prefetcher: "stems", Accesses: 1000, Reads: 900, Writes: 100, L1Hits: 700, L2Hits: 100,
		OffChipReads: 50, Covered: 40, Overpredicted: 5, Fetched: 60, MetaTransfers: 1,
		ReconPlacedExact: 30, ReconPlacedNear: 3, ReconDropped: 1, Cycles: 123456,
	}
	want := resultDigest(base)
	v := reflect.ValueOf(&base).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		p := base
		pv := reflect.ValueOf(&p).Elem().Field(i)
		switch f.Kind() {
		case reflect.Uint64:
			pv.SetUint(f.Uint() + 1)
		case reflect.String:
			pv.SetString(f.String() + "x")
		default:
			continue
		}
		got := resultDigest(p)
		if got == want {
			t.Errorf("perturbing %s leaves the digest unchanged", v.Type().Field(i).Name)
		}
		if err := compareDigests("cell", []string{want, got}, []string{want, want}); err == nil {
			t.Errorf("compareDigests accepted a perturbed %s", v.Type().Field(i).Name)
		}
	}
	if err := compareDigests("cell", []string{want}, []string{want}); err != nil {
		t.Errorf("compareDigests rejected equal digests: %v", err)
	}
}

func TestMaxRateInterpolates(t *testing.T) {
	steps := []rampPoint{{100, 10}, {200, 20}, {300, 120}}
	if got := maxRate(steps, 70); !near(got, 250) {
		t.Errorf("maxRate = %v, want 250", got)
	}
	if got := maxRate(steps[:2], 70); got != 200 {
		t.Errorf("all steps pass: %v, want the last rate", got)
	}
}
