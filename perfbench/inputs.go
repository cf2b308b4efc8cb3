package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"stems"
)

// Every input below is a pure function of the benchmark seed: the same
// seed gives the same traces, key sets, arrival times and key draws, and
// the program under test only ever sees the generated specs.

// deriveSeed maps (benchmark seed, purpose, index) to a positive workload
// seed with a splitmix64 finalizer, so neighbouring benchmark seeds name
// unrelated traces.
func deriveSeed(seed int64, purpose string, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, purpose, i)
	z := h.Sum64() + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z%(1<<31)) + 1
}

// rng returns a math/rand generator seeded for one purpose.
func rng(seed int64, purpose string) *rand.Rand {
	return rand.New(rand.NewSource(deriveSeed(seed, purpose, 0)))
}

// sweepPredictors are the predictors the sweep grid crosses with every
// trace: the paper's suite plus the related-work epoch baseline.
var sweepPredictors = []string{"stride", "sms", "tms", "stems", "naive-hybrid", "epoch"}

// allKinds is every built-in machine kind, the no-prefetch floor first;
// the traced replay times each of them.
var allKinds = []string{"none", "stride", "sms", "tms", "stems", "naive-hybrid", "epoch"}

// sweepCell is one run of the sweep grid.
type sweepCell struct {
	Workload, System, Predictor string
}

// sweepCells is the sweep workload's grid: six suite workloads on the
// scaled system plus DB2 and em3d on the full Table 1 system, each
// crossed with every predictor at its suite default length. Cells of one
// workload share that workload's single trace whatever the system.
func sweepCells() []sweepCell {
	type wl struct{ name, system string }
	wls := []wl{
		{"DB2", "scaled"}, {"Oracle", "scaled"}, {"Apache", "scaled"},
		{"Qry17", "scaled"}, {"em3d", "scaled"}, {"ocean", "scaled"},
		{"DB2", "paper"}, {"em3d", "paper"},
	}
	var cells []sweepCell
	for _, w := range wls {
		for _, p := range sweepPredictors {
			cells = append(cells, sweepCell{Workload: w.name, System: w.system, Predictor: p})
		}
	}
	return cells
}

// cellSpec is a sweep cell's wire form at the given trace seed.
func (c sweepCell) spec(seed int64) stems.RunSpec {
	return stems.RunSpec{
		Predictor: c.Predictor, Workload: c.Workload, Seed: seed, System: c.System,
		Label: c.System + "/" + c.Predictor + "/" + c.Workload,
	}
}

// traceSeed is the one trace seed a workload gets in a benchmark run.
func traceSeed(seed int64, workload string) int64 {
	return deriveSeed(seed, "trace/"+workload, 0)
}

// The serve-hits key set: short runs spread over predictors, suite
// workloads, seeds and one STeMS knob. 7 predictors x 10 workloads x 7
// seeds x 2 knob values = 980 keys, about four times stemsd's default
// 256-entry memory tier, so the Zipf tail is read from the disk store.
const (
	hitSeeds      = 7
	hitKnob       = "stems.svb_entries"
	hitSweepRuns  = 16    // runs in one multi-run sweep read
	hitSweepShare = 0.1   // share of arrivals that are sweep reads
	hitZipfS      = 1.1   // Zipf exponent of the key draws
	hitRate       = 150.0 // offered jobs/s in the timed phase, about half of max_rate_jobs_per_s
)

var (
	hitKnobValues = []int64{64, 32}
	hitLengths    = []int{5_000, 10_000, 20_000}
)

// hitCell is one trace of the key set and the runs replaying it.
type hitCell struct {
	runs []stems.RunSpec
	keys []int // global key index of each run
}

// hitKeySet builds the key set, grouped by trace so the set-up jobs fold
// each trace's runs into one lockstep set. keys[i] is key i's spec.
func hitKeySet(seed int64) (cells []hitCell, keys []stems.RunSpec) {
	for w, wl := range stems.WorkloadNames() {
		for s := 0; s < hitSeeds; s++ {
			tseed := deriveSeed(seed, "hits/"+wl, s)
			n := hitLengths[(w+s)%len(hitLengths)]
			var cell hitCell
			for _, p := range allKinds {
				for _, kv := range hitKnobValues {
					spec := stems.RunSpec{
						Predictor: p, Workload: wl, Seed: tseed, Accesses: n,
						Label: fmt.Sprintf("k%d", len(keys)),
						Knobs: map[string]stems.Value{hitKnob: stems.IntValue(kv)},
					}
					cell.runs = append(cell.runs, spec)
					cell.keys = append(cell.keys, len(keys))
					keys = append(keys, spec)
				}
			}
			cells = append(cells, cell)
		}
	}
	return cells, keys
}

// arrival is one open-loop event: a job due at an offset from the start
// of its phase. keys lists the key-set indices the job reads; an empty
// list is a metrics scrape.
type arrival struct {
	idx  int
	due  time.Duration
	keys []int
}

// hitArrivals draws a Poisson arrival schedule at rate jobs/s over d,
// plus one /metrics scrape per second. Keys are Zipf-skewed over a
// seed-dependent permutation of the key set, so the hot head differs by
// seed; a hitSweepShare of jobs read hitSweepRuns keys at once.
func hitArrivals(seed int64, purpose string, nkeys int, rate float64, d time.Duration) []arrival {
	r := rng(seed, "arrivals/"+purpose)
	perm := rng(seed, "hotset").Perm(nkeys)
	zipf := rand.NewZipf(r, hitZipfS, 1, uint64(nkeys-1))
	var out []arrival
	next := time.Second
	scrapeAt := time.Duration(0)
	for t := time.Duration(0); ; {
		t += time.Duration(r.ExpFloat64() / rate * float64(time.Second))
		for scrapeAt <= t && scrapeAt < d {
			out = append(out, arrival{idx: len(out), due: scrapeAt})
			scrapeAt += next
		}
		if t >= d {
			break
		}
		k := 1
		if r.Float64() < hitSweepShare {
			k = hitSweepRuns
		}
		a := arrival{idx: len(out), due: t, keys: make([]int, k)}
		for i := range a.keys {
			a.keys[i] = perm[zipf.Uint64()]
		}
		out = append(out, a)
	}
	return out
}

// Serve-grid job shapes; every job replays fresh traces, so every run is
// a cache miss that is simulated and written to the store.
const gridAccesses = 50_000

// gridJob is the i-th serve-grid job: a GridSpec on a DB2 or Oracle
// trace (STeMS x lookahead x RMOB size), a Figure 9 predictor panel on an
// Apache or em3d trace, or a four-seed STeMS set on Qry17.
func gridJob(seed int64, i int) stems.JobSpec {
	s := deriveSeed(seed, "grid", i)
	label := fmt.Sprintf("g%d", i)
	pick := func(a, b string) string {
		if (i/3)%2 == 0 {
			return a
		}
		return b
	}
	switch i % 3 {
	case 0:
		return stems.JobSpec{Grid: &stems.GridSpec{
			Base: stems.RunSpec{Predictor: "stems", Workload: pick("DB2", "Oracle"), Seed: s, Accesses: gridAccesses, Label: label},
			Axes: []stems.GridAxis{
				{Knob: "stems.lookahead", Values: []stems.Value{stems.IntValue(4), stems.IntValue(8), stems.IntValue(12)}},
				{Knob: "stems.rmob_entries", Values: []stems.Value{stems.IntValue(16384), stems.IntValue(131072)}},
			},
		}}
	case 1:
		var spec stems.JobSpec
		for _, p := range []string{"stride", "sms", "tms", "stems"} {
			spec.Runs = append(spec.Runs, stems.RunSpec{
				Predictor: p, Workload: pick("Apache", "em3d"), Seed: s, Accesses: gridAccesses, Label: label + "/" + p,
			})
		}
		return spec
	default:
		var spec stems.JobSpec
		for k := 0; k < 4; k++ {
			spec.Runs = append(spec.Runs, stems.RunSpec{
				Predictor: "stems", Workload: "Qry17", Seed: s + int64(k)*stems.SeedStride, Accesses: gridAccesses,
				Label: fmt.Sprintf("%s/s%d", label, k),
			})
		}
		return spec
	}
}
