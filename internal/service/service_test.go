package service

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"stems"
	"stems/internal/enc"
)

// smallRun is a spec small enough that a test run completes in tens of
// milliseconds but still exercises the full predictor pipeline.
func smallRun(workload string, accesses int) enc.RunSpec {
	return enc.RunSpec{Predictor: "stems", Workload: workload, Accesses: accesses}
}

func mustNew(t testing.TB, cfg Config) *Service {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func waitJob(t *testing.T, j *Job) enc.JobStatus {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(2 * time.Minute):
		t.Fatalf("job %s did not finish: %+v", j.ID, j.Status())
	}
	return j.Status()
}

// TestSubmitMatchesDirectRun is the core acceptance check: a job's result
// must be byte-identical to the same configuration run directly through
// stems.Run and encoded with the shared marshaler.
func TestSubmitMatchesDirectRun(t *testing.T) {
	svc := mustNew(t, Config{Workers: 2, QueueBound: 8})
	defer svc.Drain()

	j, err := svc.Submit(enc.JobSpec{RunSpec: smallRun("em3d", 30_000)})
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, j)
	if st.State != enc.JobDone {
		t.Fatalf("state = %s (err %q), want done", st.State, st.Error)
	}
	if len(st.Results) != 1 {
		t.Fatalf("got %d results, want 1", len(st.Results))
	}
	if st.Progress.AccessesDone != st.Progress.AccessesTotal || st.Progress.AccessesTotal != 30_000 {
		t.Errorf("progress = %+v, want 30000/30000", st.Progress)
	}

	r, err := stems.New(
		stems.WithPredictor("stems"),
		stems.WithWorkload("em3d"),
		stems.WithSeed(1),
		stems.WithAccesses(30_000),
		stems.WithSystem(stems.ScaledSystem()),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	direct, err := json.Marshal(enc.FromResult("", res))
	if err != nil {
		t.Fatal(err)
	}
	if string(st.Results[0]) != string(direct) {
		t.Errorf("service result differs from direct run:\n service: %s\n direct:  %s", st.Results[0], direct)
	}
}

// TestJobPhaseSpans checks the per-job phase accounting a finished
// status reports: all five phases present in canonical order, with the
// worked phases (queue wait, trace resolve, simulate, encode, cache
// write) each recording at least one span for a computed run — and a
// fully cache-served job recording no simulate span at all.
func TestJobPhaseSpans(t *testing.T) {
	svc := mustNew(t, Config{Workers: 1, QueueBound: 8})
	defer svc.Drain()

	spec := enc.JobSpec{RunSpec: smallRun("em3d", 20_000)}
	st := waitJob(t, mustSubmit(t, svc, spec))
	if st.State != enc.JobDone {
		t.Fatalf("job: %s (%s)", st.State, st.Error)
	}
	if len(st.Phases) != enc.NumPhases {
		t.Fatalf("got %d phase spans, want %d: %+v", len(st.Phases), enc.NumPhases, st.Phases)
	}
	for i, ph := range st.Phases {
		if ph.Phase != enc.PhaseNames[i] {
			t.Errorf("phase[%d] = %q, want %q", i, ph.Phase, enc.PhaseNames[i])
		}
		if ph.Count < 1 {
			t.Errorf("phase %q recorded %d spans, want >= 1", ph.Phase, ph.Count)
		}
		if ph.Nanos < 0 {
			t.Errorf("phase %q nanos = %d, want >= 0", ph.Phase, ph.Nanos)
		}
	}
	if sim := st.Phases[enc.PhaseSimulate]; sim.Nanos <= 0 {
		t.Errorf("simulate span = %dns, want > 0", sim.Nanos)
	}

	// A repeat of the same spec is served from the result cache: queue
	// wait is still recorded, simulate never runs.
	cached := waitJob(t, mustSubmit(t, svc, spec))
	if cached.State != enc.JobDone {
		t.Fatalf("cached job: %s (%s)", cached.State, cached.Error)
	}
	if n := cached.Phases[enc.PhaseSimulate].Count; n != 0 {
		t.Errorf("cached job recorded %d simulate spans, want 0", n)
	}
	if n := cached.Phases[enc.PhaseQueue].Count; n != 1 {
		t.Errorf("cached job recorded %d queue spans, want 1", n)
	}

	m := svc.Metrics()
	if m.AccessesPerSec1m <= 0 {
		t.Errorf("accesses_per_sec_1m = %v, want > 0 right after a run", m.AccessesPerSec1m)
	}
}

// TestCacheHitByteIdentical submits the same configuration twice: the
// second job must be served from the result cache (no recomputation) with
// byte-identical result bytes.
func TestCacheHitByteIdentical(t *testing.T) {
	svc := mustNew(t, Config{Workers: 1, QueueBound: 8})
	defer svc.Drain()

	spec := enc.JobSpec{RunSpec: smallRun("DB2", 20_000)}
	first := waitJob(t, mustSubmit(t, svc, spec))
	if first.State != enc.JobDone {
		t.Fatalf("first job: %s (%s)", first.State, first.Error)
	}
	second := waitJob(t, mustSubmit(t, svc, spec))
	if second.State != enc.JobDone {
		t.Fatalf("second job: %s (%s)", second.State, second.Error)
	}

	if string(first.Results[0]) != string(second.Results[0]) {
		t.Errorf("cached result not byte-identical:\n first:  %s\n second: %s", first.Results[0], second.Results[0])
	}
	if second.Progress.CacheHits != 1 {
		t.Errorf("second job cache hits = %d, want 1", second.Progress.CacheHits)
	}
	m := svc.Metrics()
	if m.CacheHits < 1 {
		t.Errorf("metrics cache hits = %d, want >= 1", m.CacheHits)
	}
	if m.RunsComputed != 1 {
		t.Errorf("runs computed = %d, want 1 (second run must not recompute)", m.RunsComputed)
	}
	if m.CacheHitRate <= 0 {
		t.Errorf("cache hit rate = %v, want > 0", m.CacheHitRate)
	}
}

// TestSingleFlight floods the pool with identical jobs: single-flight
// de-duplication must collapse them to one simulation.
func TestSingleFlight(t *testing.T) {
	svc := mustNew(t, Config{Workers: 4, QueueBound: 32})
	defer svc.Drain()

	spec := enc.JobSpec{RunSpec: smallRun("ocean", 20_000)}
	jobs := make([]*Job, 8)
	for i := range jobs {
		jobs[i] = mustSubmit(t, svc, spec)
	}
	var want string
	for i, j := range jobs {
		st := waitJob(t, j)
		if st.State != enc.JobDone {
			t.Fatalf("job %d: %s (%s)", i, st.State, st.Error)
		}
		if i == 0 {
			want = string(st.Results[0])
		} else if got := string(st.Results[0]); got != want {
			t.Errorf("job %d result differs", i)
		}
	}
	if m := svc.Metrics(); m.RunsComputed != 1 {
		t.Errorf("runs computed = %d, want 1 (single-flight)", m.RunsComputed)
	}
}

// TestSweepJob runs a multi-run job and checks ordering and per-run
// labels, plus cache reuse across runs inside one job.
func TestSweepJob(t *testing.T) {
	svc := mustNew(t, Config{Workers: 2, QueueBound: 8})
	defer svc.Drain()

	spec := enc.JobSpec{Runs: []enc.RunSpec{
		{Predictor: "stride", Workload: "em3d", Accesses: 20_000, Label: "a"},
		{Predictor: "sms", Workload: "em3d", Accesses: 20_000, Label: "b"},
		{Predictor: "stride", Workload: "em3d", Accesses: 20_000, Label: "c"}, // same config as "a"
	}}
	st := waitJob(t, mustSubmit(t, svc, spec))
	if st.State != enc.JobDone {
		t.Fatalf("state = %s (%s)", st.State, st.Error)
	}
	results, err := st.DecodedResults()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	for i, wantLabel := range []string{"a", "b", "c"} {
		if results[i].Label != wantLabel {
			t.Errorf("result %d label = %q, want %q", i, results[i].Label, wantLabel)
		}
	}
	if results[0].Predictor != "stride" || results[1].Predictor != "sms" {
		t.Errorf("predictors = %s, %s; want stride, sms", results[0].Predictor, results[1].Predictor)
	}
	// Runs "a" and "c" share a content address: identical counters, and
	// only two simulations for three runs.
	ra, rc := results[0], results[2]
	ra.Label, rc.Label = "", ""
	if ra != rc {
		t.Errorf("runs a and c differ despite identical configuration")
	}
	if st.Progress.CacheHits != 1 {
		t.Errorf("job cache hits = %d, want 1", st.Progress.CacheHits)
	}
	if m := svc.Metrics(); m.RunsComputed != 2 {
		t.Errorf("runs computed = %d, want 2", m.RunsComputed)
	}
	// The em3d trace was generated once and shared through the arena:
	// of the two computed runs, one generated it and one hit it.
	if m := svc.Metrics(); m.TraceGenerations != 1 || m.TraceHits != 1 {
		t.Errorf("trace generations, hits = %d, %d; want 1, 1", m.TraceGenerations, m.TraceHits)
	}
}

// TestCancelQueued cancels a job before any worker reaches it.
func TestCancelQueued(t *testing.T) {
	svc := mustNew(t, Config{Workers: 1, QueueBound: 8})
	defer svc.Drain()

	// Occupy the single worker so the next submission stays queued.
	blocker := mustSubmit(t, svc, enc.JobSpec{RunSpec: smallRun("DB2", 400_000)})
	victim := mustSubmit(t, svc, enc.JobSpec{RunSpec: smallRun("Oracle", 400_000)})

	if err := svc.Cancel(victim.ID); err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, victim)
	if st.State != enc.JobCanceled {
		t.Errorf("victim state = %s, want canceled", st.State)
	}
	if len(st.Results) != 0 {
		t.Errorf("cancelled job has %d results", len(st.Results))
	}
	if st := waitJob(t, blocker); st.State != enc.JobDone {
		t.Errorf("blocker state = %s (%s), want done", st.State, st.Error)
	}
	if m := svc.Metrics(); m.JobsCanceled != 1 {
		t.Errorf("jobs canceled = %d, want 1", m.JobsCanceled)
	}
}

// TestCancelRunning cancels a job mid-replay; the worker must wind down
// at a block boundary without completing the trace.
func TestCancelRunning(t *testing.T) {
	svc := mustNew(t, Config{Workers: 1, QueueBound: 4})
	defer svc.Drain()

	j := mustSubmit(t, svc, enc.JobSpec{RunSpec: smallRun("Apache", 1_000_000)})

	// Wait until the replay has demonstrably started, then cancel.
	deadline := time.Now().Add(time.Minute)
	for j.accessesDone.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("job never made progress: %+v", j.Status())
		}
		time.Sleep(time.Millisecond)
	}
	if err := svc.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, j)
	if st.State != enc.JobCanceled {
		t.Fatalf("state = %s (%s), want canceled", st.State, st.Error)
	}
	if done := st.Progress.AccessesDone; done == 0 || done >= st.Progress.AccessesTotal {
		t.Errorf("accesses done = %d of %d: expected a partial replay", done, st.Progress.AccessesTotal)
	}
	// A cancelled computation must not poison the cache: resubmitting the
	// configuration computes it fresh and completes.
	st2 := waitJob(t, mustSubmit(t, svc, enc.JobSpec{RunSpec: smallRun("Apache", 1_000_000)}))
	if st2.State != enc.JobDone {
		t.Errorf("resubmission state = %s (%s), want done", st2.State, st2.Error)
	}
}

// TestValidationErrors exercises the descriptive-rejection satellite.
func TestValidationErrors(t *testing.T) {
	svc := mustNew(t, Config{Workers: 1, QueueBound: 4})
	defer svc.Drain()

	cases := []struct {
		name string
		spec enc.JobSpec
		want string
	}{
		{"unknown predictor", enc.JobSpec{RunSpec: enc.RunSpec{Predictor: "warp-drive"}}, "unknown predictor"},
		{"unknown workload", enc.JobSpec{RunSpec: enc.RunSpec{Workload: "minesweeper"}}, "unknown workload"},
		{"negative accesses", enc.JobSpec{RunSpec: enc.RunSpec{Accesses: -5}}, "invalid accesses"},
		{"negative seed", enc.JobSpec{RunSpec: enc.RunSpec{Seed: -1}}, "invalid seed"},
		{"unknown system", enc.JobSpec{RunSpec: enc.RunSpec{System: "quantum"}}, "unknown system"},
		{"empty runs", enc.JobSpec{Runs: []enc.RunSpec{}}, "must not be empty"},
		{"both forms", enc.JobSpec{RunSpec: enc.RunSpec{Predictor: "stems"}, Runs: []enc.RunSpec{{}}}, "not both"},
		{"bad sweep run", enc.JobSpec{Runs: []enc.RunSpec{{}, {Predictor: "nope"}}}, "run 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := svc.Submit(tc.spec)
			if !errors.Is(err, ErrInvalidSpec) {
				t.Fatalf("error = %v, want ErrInvalidSpec", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// "empty runs" needs a non-nil empty slice, which JSON produces for
// "runs": []. Guard that the test actually models the wire case.
func TestEmptyRunsFromJSON(t *testing.T) {
	var spec enc.JobSpec
	if err := json.Unmarshal([]byte(`{"runs":[]}`), &spec); err != nil {
		t.Fatal(err)
	}
	if _, err := resolveSpec(&spec); !errors.Is(err, ErrInvalidSpec) {
		t.Fatalf("error = %v, want ErrInvalidSpec", err)
	}
}

// TestQueueBackpressure fills the bounded queue and expects load shedding.
func TestQueueBackpressure(t *testing.T) {
	svc := mustNew(t, Config{Workers: 1, QueueBound: 1})
	defer func() { svc.Abort(); svc.Drain() }()

	// Big enough to hold the worker while we overfill the queue.
	big := enc.JobSpec{RunSpec: smallRun("Qry2", 2_000_000)}
	mustSubmit(t, svc, big)

	sawFull := false
	for i := 0; i < 10 && !sawFull; i++ {
		_, err := svc.Submit(enc.JobSpec{RunSpec: smallRun("Qry16", 2_000_000+i)})
		if errors.Is(err, ErrQueueFull) {
			sawFull = true
		} else if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if !sawFull {
		t.Error("never saw ErrQueueFull with queue bound 1")
	}
}

// TestDrain submits a batch and drains: every job must reach a terminal
// state before Drain returns, and late submissions must be refused.
func TestDrain(t *testing.T) {
	svc := mustNew(t, Config{Workers: 2, QueueBound: 16})
	var jobs []*Job
	for i := 0; i < 6; i++ {
		jobs = append(jobs, mustSubmit(t, svc, enc.JobSpec{RunSpec: enc.RunSpec{
			Predictor: "stride", Workload: "sparse", Seed: int64(i + 1), Accesses: 20_000,
		}}))
	}
	svc.Drain()
	for i, j := range jobs {
		st := j.Status()
		if !st.State.Terminal() {
			t.Errorf("after drain, job %d is %s", i, st.State)
		}
		if st.State != enc.JobDone {
			t.Errorf("job %d = %s (%s), want done", i, st.State, st.Error)
		}
	}
	if _, err := svc.Submit(enc.JobSpec{RunSpec: smallRun("DB2", 1000)}); !errors.Is(err, ErrDraining) {
		t.Errorf("post-drain submit error = %v, want ErrDraining", err)
	}
}

// TestStress hammers a small pool with concurrent submissions over a
// handful of distinct configurations plus concurrent cancellations —
// run under -race in CI. Every job must land in a terminal state and the
// bookkeeping must balance.
func TestStress(t *testing.T) {
	svc := mustNew(t, Config{Workers: 4, QueueBound: 256, CacheBound: 8, TraceBound: 2})
	defer svc.Drain()

	workloads := []string{"em3d", "DB2", "Apache"}
	predictors := []string{"stems", "stride", "sms", "none"}
	const jobsN = 60

	var wg sync.WaitGroup
	jobc := make(chan *Job, jobsN)
	for i := 0; i < jobsN; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := enc.JobSpec{RunSpec: enc.RunSpec{
				Predictor: predictors[i%len(predictors)],
				Workload:  workloads[i%len(workloads)],
				Seed:      int64(i%3 + 1),
				Accesses:  10_000 + 1000*(i%4),
			}}
			j, err := svc.Submit(spec)
			if err != nil {
				if errors.Is(err, ErrQueueFull) {
					return // valid shedding under stress
				}
				t.Errorf("submit %d: %v", i, err)
				return
			}
			if i%7 == 0 {
				_ = svc.Cancel(j.ID)
			}
			jobc <- j
		}(i)
	}
	wg.Wait()
	close(jobc)

	var done, canceled int
	for j := range jobc {
		st := waitJob(t, j)
		switch st.State {
		case enc.JobDone:
			done++
			if len(st.Results) != 1 {
				t.Errorf("job %s done with %d results", j.ID, len(st.Results))
			}
		case enc.JobCanceled:
			canceled++
		default:
			t.Errorf("job %s: %s (%s)", j.ID, st.State, st.Error)
		}
	}
	if done == 0 {
		t.Error("stress run completed no jobs")
	}
	m := svc.Metrics()
	if got := m.JobsCompleted + m.JobsFailed + m.JobsCanceled; got != m.JobsSubmitted {
		t.Errorf("terminal jobs %d != submitted %d (%+v)", got, m.JobsSubmitted, m)
	}
	// TraceBound 2 is raised to Workers (4) so concurrent workers don't
	// thrash each other's traces.
	if m.TracesResident > 4 {
		t.Errorf("arena holds %d traces, effective bound is 4", m.TracesResident)
	}
	if m.CacheEntries > 8 {
		t.Errorf("result cache holds %d entries, bound is 8", m.CacheEntries)
	}
	if m.AccessesSimulated == 0 || m.AccessesPerSec <= 0 {
		t.Errorf("throughput accounting empty: %+v", m)
	}
}

// TestJobRetention checks the job table stays bounded: beyond RetainJobs
// the oldest terminal jobs are forgotten, while live jobs survive.
func TestJobRetention(t *testing.T) {
	svc := mustNew(t, Config{Workers: 1, QueueBound: 8, RetainJobs: 2})
	defer svc.Drain()

	var ids []string
	for i := 0; i < 4; i++ {
		j := mustSubmit(t, svc, enc.JobSpec{RunSpec: enc.RunSpec{
			Predictor: "none", Workload: "sparse", Seed: int64(i + 1), Accesses: 5_000,
		}})
		ids = append(ids, j.ID)
		waitJob(t, j)
	}
	if _, err := svc.Job(ids[0]); !errors.Is(err, ErrNotFound) {
		t.Errorf("oldest job still retained: err = %v, want ErrNotFound", err)
	}
	if _, err := svc.Job(ids[3]); err != nil {
		t.Errorf("newest job evicted: %v", err)
	}
	if got := len(svc.Jobs()); got > 2 {
		t.Errorf("retained %d jobs, bound is 2", got)
	}
}

// TestJobNotFound covers the lookup error path.
func TestJobNotFound(t *testing.T) {
	svc := mustNew(t, Config{Workers: 1, QueueBound: 1})
	defer svc.Drain()
	if _, err := svc.Job("j-999999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Job error = %v, want ErrNotFound", err)
	}
	if err := svc.Cancel("j-999999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Cancel error = %v, want ErrNotFound", err)
	}
}

func mustSubmit(t *testing.T, svc *Service, spec enc.JobSpec) *Job {
	t.Helper()
	j, err := svc.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	return j
}
