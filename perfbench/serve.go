package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"stems"
)

// Daemon-side workload settings.
const (
	hitWarmup      = 2 * time.Second        // untimed open loop that fills the memory tier
	hitDeadline    = time.Second            // a hit job past this (from its due time) fails
	hitLimit       = 100 * time.Millisecond // p99 latency limit of the ramp
	rampStep       = 1500 * time.Millisecond
	setupDeadline  = 60 * time.Second // a set-up or check job past this fails
	daemonStarts   = 25               // daemon starts per run; setup_s is their median
	gridDeadline   = 60 * time.Second // a serve-grid job past this fails
	hitCheckSample = 16               // keys re-run locally for an unrecorded seed
)

// rampFactors multiply the probed capacity into the ramp's offered
// rates.
var rampFactors = []float64{0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2}

// session is one daemon process's /metrics before and after the jobs
// measured on it, and the daemon CPU they took; window marks the timed
// window. The benchmark process's CPU is left out: it is mostly the load
// generator's own timers and bookkeeping, not the system under test, and
// the client library's share is measured by the server.* and
// enc.decode_ms spans.
type session struct {
	before, after stems.ServiceMetrics
	cpu           time.Duration
	window        bool
}

// serveObs is what the daemon-side layers were seen doing in one run.
type serveObs struct {
	window     []jobRec // timed-window jobs and scrapes
	other      []jobRec // set-up and check jobs
	sessions   []session
	windowWall time.Duration
	nproc      int
	wrong      []string
}

func (so *serveObs) wrongf(format string, args ...any) {
	so.wrong = append(so.wrong, fmt.Sprintf(format, args...))
}

// measure runs fn between two /metrics and CPU reads on d and returns
// the session it recorded.
func (so *serveObs) measure(ctx context.Context, d *daemon, window bool, fn func()) (session, error) {
	s := session{window: window}
	var err error
	if s.before, err = d.client.Metrics(ctx); err != nil {
		return s, err
	}
	c0, err := d.cpu()
	if err != nil {
		return s, err
	}
	fn()
	c1, err := d.cpu()
	if err != nil {
		return s, err
	}
	s.cpu = c1 - c0
	if s.after, err = d.client.Metrics(ctx); err != nil {
		return s, err
	}
	so.sessions = append(so.sessions, s)
	return s, nil
}

// jobDigest digests a job's results in run order.
func jobDigest(results []stems.RunResult) string {
	ds := make([]string, len(results))
	for i, r := range results {
		ds[i] = wireDigest(r)
	}
	return combine(ds)
}

// completed counts the jobs (not scrapes) that succeeded.
func completed(recs []jobRec) int {
	n := 0
	for _, r := range recs {
		if r.err == nil && !r.scrape {
			n++
		}
	}
	return n
}

// failures counts job records that failed.
func failures(recs []jobRec) int {
	n := 0
	for _, r := range recs {
		if r.err != nil {
			n++
		}
	}
	return n
}

// latenciesMS is every job's due-time latency in ms; a failed job counts
// as at least the deadline, i.e. over any latency limit.
func latenciesMS(recs []jobRec, deadline time.Duration) []float64 {
	var out []float64
	for _, r := range recs {
		if r.scrape {
			continue
		}
		l := r.latency()
		if r.err != nil {
			l = max(l, deadline)
		}
		out = append(out, ms(l))
	}
	return out
}

// untraced runs fn with span recording off.
func (b *bench) untraced(fn func()) {
	on := b.tr.on
	b.tr.on = false
	fn()
	b.tr.on = on
}

// jobTracer is the tracer job i records spans in. A traced run
// alternates traced and untraced jobs through the same window, so their
// median latencies give the tracing overhead without drift between them.
func (b *bench) jobTracer(i int) *tracer {
	if b.traced && i%2 == 0 {
		return nil
	}
	return b.tr
}

// tracingOverhead compares the traced and untraced jobs of a traced run.
func tracingOverhead(o *outcome, recs []jobRec, deadline time.Duration) {
	var traced, plain []jobRec
	for _, r := range recs {
		if r.traced {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	o.metrics["bench.tracing_overhead_frac"] = median(latenciesMS(traced, deadline))/median(latenciesMS(plain, deadline)) - 1
}

// runServeHits is the stemsd read path: a key set computed once and
// persisted, the daemon restarted on that store, then Poisson arrivals
// at a fixed rate reading Zipf-skewed keys (some as 16-run sweep reads)
// plus a Prometheus scrape a second. Nothing may be simulated in the
// timed window. A stepped ramp of offered rates follows it.
func runServeHits(ctx context.Context, b *bench) (*outcome, error) {
	o := newOutcome()
	so := &serveObs{nproc: b.nproc}
	cells, keys := hitKeySet(b.seed)
	store, err := os.MkdirTemp(b.tmp, "store-")
	if err != nil {
		return nil, err
	}

	phase := time.Now()
	lap := func(name string) {
		o.notef("phase %s took %.2fs", name, time.Since(phase).Seconds())
		phase = time.Now()
	}
	d, err := b.startDaemon(ctx, store)
	if err != nil {
		return nil, err
	}
	var setupRecs []jobRec
	if _, err := so.measure(ctx, d, false, func() {
		setupRecs = closedLoop(ctx, wallClock{time.Now()}, b.nproc, 1<<62, setupDeadline, counter(len(cells)),
			func(ctx context.Context, i int) jobRec {
				r := d.runJob(ctx, b.tr, stems.JobSpec{Runs: cells[i].runs})
				r.keys = cells[i].keys
				return r
			})
	}); err != nil {
		return nil, err
	}
	so.other = append(so.other, setupRecs...)
	expected := make([]string, len(keys))
	for _, r := range setupRecs {
		if r.err != nil {
			return nil, fmt.Errorf("populating the key set: %w", r.err)
		}
		for k, res := range r.results {
			expected[r.keys[k]] = wireDigest(res)
		}
	}
	d.stop(b)
	lap("populate")

	var setups []float64
	for k := 0; k < daemonStarts; k++ {
		if d, err = b.startDaemon(ctx, store); err != nil {
			return nil, err
		}
		setups = append(setups, d.startCPU.Seconds())
		if k < daemonStarts-1 {
			d.stop(b)
		}
	}
	defer d.stop(b)
	lap("restarts")

	doHit := func(ctx context.Context, a arrival) jobRec {
		tr := b.jobTracer(a.idx)
		if len(a.keys) == 0 {
			return d.runScrape(ctx, tr)
		}
		spec := stems.JobSpec{RunSpec: keys[a.keys[0]]}
		if len(a.keys) > 1 {
			spec = stems.JobSpec{}
			for _, k := range a.keys {
				spec.Runs = append(spec.Runs, keys[k])
			}
		}
		r := d.runJob(ctx, tr, spec)
		r.keys = a.keys
		return r
	}
	openAt := func(purpose string, rate float64, dur time.Duration) ([]jobRec, time.Duration) {
		arr := hitArrivals(b.seed, purpose, len(keys), rate, dur)
		t0 := time.Now()
		recs := openLoop(ctx, wallClock{t0}, arr, b.nproc, hitDeadline, doHit)
		return recs, time.Since(t0)
	}

	b.untraced(func() { openAt("warmup", hitRate, hitWarmup) })
	lap("warmup")

	var win []jobRec
	steal := startSteal()
	w, err := so.measure(ctx, d, true, func() { win, so.windowWall = openAt("window", hitRate, b.seconds) })
	if err != nil {
		return nil, err
	}
	o.metrics["bench.steal_frac"] = steal.share()
	so.window = win
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	if moved := w.after.RunsComputed - w.before.RunsComputed; moved != 0 {
		o.wrongf("runs_computed moved by %d in the timed window: a hit was simulated", moved)
	}
	checkHits(o, win, expected)
	o.attempted, o.failed = len(win), failures(win)
	lap("window")

	probe := func() float64 {
		arr := hitArrivals(b.seed, "probe", len(keys), 5000, rampStep)
		t0 := time.Now()
		recs := closedLoop(ctx, wallClock{t0}, b.nproc, rampStep, hitDeadline, counter(len(arr)),
			func(ctx context.Context, i int) jobRec { return doHit(ctx, arr[i]) })
		return float64(completed(recs)) / time.Since(t0).Seconds()
	}
	var maxRate, capacity float64
	var steps rampPoints
	b.untraced(func() { maxRate, capacity, steps = ramp(ctx, probe, openAt) })
	o.notef("ramp: closed-loop capacity %.1f jobs/s; steps (rate jobs/s:score ms) %s", capacity, steps)
	lap("ramp")

	if err := checkKeySet(ctx, b, o, cells, keys, expected); err != nil {
		return nil, err
	}
	lap("check")

	lat := latenciesMS(win, hitDeadline)
	q, ok := tailQuantile(len(lat), 0.99)
	o.notef("window jobs=%d (with scrapes %d) rate=%.0f/s p99 beyond=%d tail_ok=%v quantile=%v", len(lat), len(win), hitRate, beyond(len(lat), 0.99), ok, q)
	var accesses uint64
	for _, r := range win {
		if r.err == nil {
			accesses += r.accesses
		}
	}
	o.metrics["setup_s"] = median(setups)
	o.metrics["cpu_ms_per_job"] = ms(w.cpu) / float64(completed(win))
	o.metrics["wall.accesses_per_s"] = float64(accesses) / so.windowWall.Seconds()
	o.metrics["wall.job_p50_ms"] = median(lat)
	o.metrics["wall.job_tail_ms"] = percentile(lat, 0.99)
	o.metrics["wall.max_rate_jobs_per_s"] = maxRate
	o.metrics["peak_rss_mb"] = rss
	if b.traced {
		tracingOverhead(o, win, hitDeadline)
		serveMetrics(o, so, b.tr)
	}
	return o, nil
}

// checkHits compares every timed hit with the key set's first
// computation, and its label with the one the job sent.
func checkHits(o *outcome, recs []jobRec, expected []string) {
	for _, r := range recs {
		if r.err != nil || r.scrape {
			continue
		}
		if len(r.results) != len(r.keys) {
			o.wrongf("hit job returned %d results for %d runs", len(r.results), len(r.keys))
			continue
		}
		for j, res := range r.results {
			k := r.keys[j]
			if res.Label != fmt.Sprintf("k%d", k) || wireDigest(res) != expected[k] {
				o.wrongf("key %d: served %q %s, computed %s", k, res.Label, wireDigest(res), expected[k])
			}
		}
	}
}

// rampPoint is one offered rate of the ramp and its score: the larger of
// the p99 due-time latency (failures counting as the deadline) and the
// lag of the step's last send, which grows when a backlog does.
type rampPoint struct {
	rate, score float64
}

type rampPoints []rampPoint

func (s rampPoints) String() string {
	out := ""
	for _, st := range s {
		out += fmt.Sprintf("%.0f:%.2f ", st.rate, st.score)
	}
	return out
}

// ramp first probes the capacity of nproc closed-loop clients, then
// offers rising open-loop rates around it, one step each, until a step
// misses the latency limit. It returns the highest rate that meets the
// limit, interpolated between the last passing and the first failing
// step. Steps relative to the probed capacity keep the answer
// continuous instead of snapping to a fixed rate grid.
func ramp(ctx context.Context, probe func() float64, openAt func(string, float64, time.Duration) ([]jobRec, time.Duration)) (float64, float64, rampPoints) {
	capacity := probe()
	var steps rampPoints
	for i, f := range rampFactors {
		if ctx.Err() != nil {
			break
		}
		rate := capacity * f
		recs, _ := openAt(fmt.Sprintf("ramp%d", i), rate, rampStep)
		score := percentile(latenciesMS(recs, hitDeadline), 0.99)
		if n := len(recs); n > 0 {
			score = max(score, ms(recs[n-1].lag))
		}
		steps = append(steps, rampPoint{rate: rate, score: score})
		if score > ms(hitLimit) {
			break
		}
	}
	return maxRate(steps, ms(hitLimit)), capacity, steps
}

// maxRate interpolates the rate at which the score crosses limit.
func maxRate(steps []rampPoint, limit float64) float64 {
	if len(steps) == 0 {
		return 0
	}
	last := steps[len(steps)-1]
	if last.score <= limit {
		return last.rate
	}
	if len(steps) == 1 {
		return last.rate * limit / last.score
	}
	prev := steps[len(steps)-2]
	frac := (limit - prev.score) / (last.score - prev.score)
	frac = max(0, min(1, frac))
	return prev.rate + frac*(last.rate-prev.rate)
}

// checkKeySet checks the key set's computed results: against the
// recorded digest for a recorded seed, otherwise by re-running a sample
// of keys locally (traced: through the per-machine replay, which also
// times the kernel layers on this workload's runs).
func checkKeySet(ctx context.Context, b *bench, o *outcome, cells []hitCell, keys []stems.RunSpec, expected []string) error {
	if want, ok := b.rec.ServeHits[seedKey(b.seed)]; ok {
		if got := combine(expected); got != want {
			o.wrongf("key set digest %s, recorded %s", got, want)
		}
		o.notef("output check: %d keys against the recorded digest", len(keys))
		if !b.traced {
			return nil
		}
	}
	if b.traced {
		var specs []stems.RunSpec
		var sampled []int
		for j := 0; j < 3; j++ {
			c := cells[(int(b.seed)+j*23)%len(cells)]
			specs = append(specs, c.runs...)
			sampled = append(sampled, c.keys...)
		}
		traces, idx, err := groupByTrace(specs)
		if err != nil {
			return err
		}
		var ks kernelStats
		results, err := replay(b.tr, "hits-check", traces, &ks, true)
		if err != nil {
			return err
		}
		for t := range idx {
			for k, i := range idx[t] {
				if key := sampled[i]; resultDigest(results[t][k]) != expected[key] {
					o.wrongf("key %d: daemon %s, local replay %v", key, expected[key], results[t][k])
				}
			}
		}
		kernelMetrics(o, b.tr, &ks)
		o.notef("output check: %d keys replayed per machine", len(specs))
		return nil
	}
	for j := 0; j < hitCheckSample; j++ {
		k := (int(b.seed)*131 + j*61) % len(keys)
		r, err := stems.FromSpec(keys[k])
		if err != nil {
			return err
		}
		res, err := r.Run(ctx)
		if err != nil {
			return err
		}
		if resultDigest(res) != expected[k] {
			o.wrongf("key %d: daemon %s, local run %v", k, expected[k], res)
		}
	}
	o.notef("output check: %d sampled keys re-run locally", hitCheckSample)
	return nil
}

// runServeGrid is the stemsd compute and write path: nproc clients in a
// closed loop on an empty store, every job new, rotating through a
// fused knob grid, a fused predictor panel and a four-seed set.
func runServeGrid(ctx context.Context, b *bench) (*outcome, error) {
	o := newOutcome()
	so := &serveObs{nproc: b.nproc}
	store, err := os.MkdirTemp(b.tmp, "store-")
	if err != nil {
		return nil, err
	}
	var setups []float64
	var d *daemon
	for k := 0; k < daemonStarts; k++ {
		if d, err = b.startDaemon(ctx, store); err != nil {
			return nil, err
		}
		setups = append(setups, d.startCPU.Seconds())
		if k < daemonStarts-1 {
			d.stop(b)
		}
	}
	defer func() { d.stop(b) }()

	var win []jobRec
	steal := startSteal()
	w, err := so.measure(ctx, d, true, func() {
		t0 := time.Now()
		win = closedLoop(ctx, wallClock{t0}, b.nproc, b.seconds, gridDeadline, counter(-1),
			func(ctx context.Context, i int) jobRec {
				r := d.runJob(ctx, b.jobTracer(i), gridJob(b.seed, i))
				r.index = i
				return r
			})
		so.windowWall = time.Since(t0)
	})
	if err != nil {
		return nil, err
	}
	o.metrics["bench.steal_frac"] = steal.share()
	so.window = win
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	o.attempted, o.failed = len(win), failures(win)
	if err := checkGrid(ctx, b, o, win); err != nil {
		return nil, err
	}
	if sample := sampleGridJobs(win); b.traced && len(sample) > 0 {
		r := sample[0]
		want := jobDigest(r.results)
		d, err = readBack(ctx, b, so, d, store, gridJob(b.seed, r.index), func(got jobRec) error {
			if g := jobDigest(got.results); g != want {
				return fmt.Errorf("job %d re-read %s, computed %s", r.index, g, want)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	lat := latenciesMS(win, gridDeadline)
	q, ok := tailQuantile(len(lat), 0.9)
	var accesses uint64
	for _, r := range win {
		if r.err == nil {
			accesses += r.accesses
		}
	}
	o.notef("window jobs=%d p90 beyond=%d tail_ok=%v quantile=%v wall_s=%.3f", len(lat), beyond(len(lat), 0.9), ok, q, so.windowWall.Seconds())
	o.metrics["setup_s"] = median(setups)
	o.metrics["cpu_ms_per_job"] = ms(w.cpu) / float64(completed(win))
	o.metrics["wall.accesses_per_s"] = float64(accesses) / so.windowWall.Seconds()
	o.metrics["wall.job_p50_ms"] = median(lat)
	o.metrics["wall.job_tail_ms"] = percentile(lat, 0.9)
	o.metrics["wall.max_rate_jobs_per_s"] = float64(completed(win)) / so.windowWall.Seconds()
	o.metrics["peak_rss_mb"] = rss
	for _, w := range so.wrong {
		o.wrongf("%s", w)
	}
	if b.traced {
		tracingOverhead(o, win, gridDeadline)
		serveMetrics(o, so, b.tr)
	}
	return o, nil
}

// sampleGridJobs picks the first successful job of each shape.
func sampleGridJobs(recs []jobRec) []jobRec {
	var out []jobRec
	seen := make(map[int]bool)
	for _, r := range recs {
		if r.err == nil && !seen[r.index%3] {
			seen[r.index%3] = true
			out = append(out, r)
		}
	}
	return out
}

// checkGrid checks the serve-grid jobs: against recorded digests for the
// jobs a recorded seed covers, and by computing a sample of jobs locally
// otherwise (traced: through the per-machine replay, with every kind
// stepped over each sampled trace so all kinds are timed).
func checkGrid(ctx context.Context, b *bench, o *outcome, recs []jobRec) error {
	want := b.rec.ServeGrid[seedKey(b.seed)]
	checked := 0
	for _, r := range recs {
		if r.err == nil && r.index < len(want) {
			checked++
			if got := jobDigest(r.results); got != want[r.index] {
				o.wrongf("grid job %d: digest %s, recorded %s", r.index, got, want[r.index])
			}
		}
	}
	if !b.traced && checked == len(recs)-failures(recs) && checked > 0 {
		o.notef("output check: %d jobs against recorded digests", checked)
		return nil
	}
	sample := sampleGridJobs(recs)
	var specs []stems.RunSpec
	var got []stems.RunResult
	for _, r := range sample {
		runs, err := jobRuns(gridJob(b.seed, r.index))
		if err != nil {
			return err
		}
		if len(r.results) != len(runs) {
			o.wrongf("grid job %d returned %d results for %d runs", r.index, len(r.results), len(runs))
			continue
		}
		specs = append(specs, runs...)
		got = append(got, r.results...)
	}
	if b.traced {
		traces, idx, err := groupByTrace(specs)
		if err != nil {
			return err
		}
		for t := range traces {
			traces[t] = traces[t].withAllKinds()
		}
		var ks kernelStats
		results, err := replay(b.tr, "grid-check", traces, &ks, true)
		if err != nil {
			return err
		}
		for t := range idx {
			for k, i := range idx[t] {
				if wireDigest(got[i]) != resultDigest(results[t][k]) {
					o.wrongf("grid run %s: daemon %v, local replay %v", specs[i].Label, got[i].Engine(), results[t][k])
				}
			}
		}
		kernelMetrics(o, b.tr, &ks)
		o.notef("output check: %d recorded jobs; %d runs of %d sampled jobs replayed per machine", checked, len(specs), len(sample))
		return nil
	}
	for i, spec := range specs {
		r, err := stems.FromSpec(spec)
		if err != nil {
			return err
		}
		res, err := r.Run(ctx)
		if err != nil {
			return err
		}
		if resultDigest(res) != wireDigest(got[i]) {
			o.wrongf("grid run %s: daemon %v, local run %v", spec.Label, got[i].Engine(), res)
		}
	}
	o.notef("output check: %d recorded jobs; %d runs of %d sampled jobs re-run locally", checked, len(specs), len(sample))
	return nil
}

// jobRuns flattens a job to its run list, expanding a grid.
func jobRuns(spec stems.JobSpec) ([]stems.RunSpec, error) {
	if spec.Grid != nil {
		return spec.Grid.Expand()
	}
	return spec.RunSpecs(), nil
}

// roundTrip computes spec on a fresh daemon and store, then reads it
// back (see readBack). check validates each pass; every job and /metrics
// pair is kept so the service and store layers are measured on these
// runs.
func roundTrip(ctx context.Context, b *bench, spec stems.JobSpec, check func(jobRec) error) (*serveObs, error) {
	so := &serveObs{nproc: b.nproc}
	store, err := os.MkdirTemp(b.tmp, "store-")
	if err != nil {
		return nil, err
	}
	d, err := b.startDaemon(ctx, store)
	if err != nil {
		return nil, err
	}
	defer func() { d.stop(b) }()
	if err := so.pass(ctx, b, d, spec, "compute", check); err != nil {
		return nil, err
	}
	d, err = readBack(ctx, b, so, d, store, spec, check)
	return so, err
}

// readBack restarts d on its store and submits spec twice, so its runs
// are served from the disk tier and then from the memory tier. It
// returns the restarted daemon.
func readBack(ctx context.Context, b *bench, so *serveObs, d *daemon, store string, spec stems.JobSpec, check func(jobRec) error) (*daemon, error) {
	d.stop(b)
	d, err := b.startDaemon(ctx, store)
	if err != nil {
		return nil, err
	}
	for _, name := range []string{"disk", "memory"} {
		if err := so.pass(ctx, b, d, spec, name, check); err != nil {
			return d, err
		}
	}
	return d, nil
}

// pass submits spec once between two /metrics reads, after a scrape.
func (so *serveObs) pass(ctx context.Context, b *bench, d *daemon, spec stems.JobSpec, name string, check func(jobRec) error) error {
	var rec jobRec
	if _, err := so.measure(ctx, d, false, func() {
		so.other = append(so.other, d.runScrape(ctx, b.tr))
		recs := closedLoop(ctx, wallClock{time.Now()}, 1, 1<<62, setupDeadline, counter(1),
			func(ctx context.Context, _ int) jobRec { return d.runJob(ctx, b.tr, spec) })
		rec = recs[0]
	}); err != nil {
		return err
	}
	so.other = append(so.other, rec)
	if rec.err != nil {
		return fmt.Errorf("%s pass: %w", name, rec.err)
	}
	if err := check(rec); err != nil {
		so.wrongf("%s pass: %v", name, err)
	}
	return nil
}
