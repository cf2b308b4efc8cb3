package service

import (
	"encoding/json"
	"runtime"
	"testing"
	"time"

	"stems/internal/enc"
	"stems/internal/sim"
)

func seedRun(workload string, accesses int, seed int64, label string) enc.RunSpec {
	return enc.RunSpec{Predictor: "stems", Workload: workload, Accesses: accesses, Seed: seed, Label: label}
}

// TestSeedRunsMatchSingleRunJobs: a job whose runs differ only by seed
// computes them concurrently, and every result must be byte-identical to
// the same runs submitted as separate jobs against a fresh daemon.
func TestSeedRunsMatchSingleRunJobs(t *testing.T) {
	seeds := []int64{1, 7920, 15839}

	// Sequential reference: one daemon, one job per seed.
	ref := mustNew(t, Config{Workers: 1, QueueBound: 8})
	want := make([]string, len(seeds))
	for i, seed := range seeds {
		j, err := ref.Submit(enc.JobSpec{RunSpec: seedRun("em3d", 20_000, seed, "")})
		if err != nil {
			t.Fatal(err)
		}
		st := waitJob(t, j)
		if st.State != enc.JobDone {
			t.Fatalf("reference seed %d: state = %s (err %q)", seed, st.State, st.Error)
		}
		want[i] = string(st.Results[0])
	}
	ref.Drain()

	// One fresh daemon, one job carrying all seeds.
	svc := mustNew(t, Config{Workers: 1, QueueBound: 8})
	defer svc.Drain()
	runs := make([]enc.RunSpec, len(seeds))
	for i, seed := range seeds {
		runs[i] = seedRun("em3d", 20_000, seed, "")
	}
	j, err := svc.Submit(enc.JobSpec{Runs: runs})
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, j)
	if st.State != enc.JobDone {
		t.Fatalf("multi-run job: state = %s (err %q)", st.State, st.Error)
	}
	if len(st.Results) != len(seeds) {
		t.Fatalf("got %d results, want %d", len(st.Results), len(seeds))
	}
	for i := range seeds {
		if string(st.Results[i]) != want[i] {
			t.Errorf("seed %d: multi-run result differs from single-run job:\n multi-run:  %s\n single-run: %s",
				seeds[i], st.Results[i], want[i])
		}
	}
	if st.Progress.CacheHits != 0 {
		t.Errorf("multi-run job reported %d cache hits, want 0 (every seed computed here)", st.Progress.CacheHits)
	}
	if st.Progress.AccessesDone != st.Progress.AccessesTotal {
		t.Errorf("progress = %d/%d, want complete", st.Progress.AccessesDone, st.Progress.AccessesTotal)
	}

	// Each seed's result is individually content-addressed: resubmitting
	// one seed alone must be a pure cache hit.
	j2, err := svc.Submit(enc.JobSpec{RunSpec: seedRun("em3d", 20_000, seeds[1], "")})
	if err != nil {
		t.Fatal(err)
	}
	st2 := waitJob(t, j2)
	if st2.State != enc.JobDone {
		t.Fatalf("resubmit: state = %s (err %q)", st2.State, st2.Error)
	}
	if st2.Progress.CacheHits != 1 {
		t.Errorf("resubmit of one seed: cache hits = %d, want 1", st2.Progress.CacheHits)
	}
	if string(st2.Results[0]) != want[1] {
		t.Errorf("cached seed differs from single-run result")
	}
}

// TestMixedRunsInOrderWithDuplicateHit: a job interleaving two cells and a
// duplicate key still returns results in submission order, each correct
// for its spec, with labels applied.
func TestMixedRunsInOrderWithDuplicateHit(t *testing.T) {
	svc := mustNew(t, Config{Workers: 1, QueueBound: 8})
	defer svc.Drain()

	runs := []enc.RunSpec{
		seedRun("em3d", 20_000, 1, "a"),
		seedRun("em3d", 20_000, 7920, "b"),
		{Predictor: "sms", Workload: "em3d", Accesses: 20_000, Seed: 1, Label: "c"},
		seedRun("em3d", 20_000, 1, "d"), // duplicate of run 0's cell+seed: cache hit
	}
	j, err := svc.Submit(enc.JobSpec{Runs: runs})
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, j)
	if st.State != enc.JobDone {
		t.Fatalf("state = %s (err %q)", st.State, st.Error)
	}
	if len(st.Results) != len(runs) {
		t.Fatalf("got %d results, want %d", len(st.Results), len(runs))
	}
	for i, want := range []string{"a", "b", "c", "d"} {
		var res struct {
			Label string `json:"label"`
		}
		if err := json.Unmarshal(st.Results[i], &res); err != nil {
			t.Fatalf("result %d: %v", i, err)
		}
		if res.Label != want {
			t.Errorf("result %d: label = %q, want %q", i, res.Label, want)
		}
	}
	if st.Progress.CacheHits != 1 {
		t.Errorf("cache hits = %d, want 1 (the duplicate run)", st.Progress.CacheHits)
	}
}

// TestOneTraceRunsMatchSingleRunJobs: a job whose runs replay one trace with
// different predictors and knobs computes them concurrently over the
// arena's one resident copy, and every result must be byte-identical to
// the same specs submitted as separate jobs against a fresh daemon.
func TestOneTraceRunsMatchSingleRunJobs(t *testing.T) {
	specs := []enc.RunSpec{
		{Predictor: "stride", Workload: "em3d", Accesses: 20_000, Seed: 1},
		{Predictor: "sms", Workload: "em3d", Accesses: 20_000, Seed: 1},
		{Predictor: "tms", Workload: "em3d", Accesses: 20_000, Seed: 1},
		{Predictor: "stems", Workload: "em3d", Accesses: 20_000, Seed: 1},
		{Predictor: "stems", Workload: "em3d", Accesses: 20_000, Seed: 1,
			Knobs: map[string]sim.Value{"stems.rmob_entries": sim.IntValue(4096)}},
	}

	// Sequential reference: one daemon, one job per spec.
	ref := mustNew(t, Config{Workers: 1, QueueBound: 8})
	want := make([]string, len(specs))
	for i, spec := range specs {
		j, err := ref.Submit(enc.JobSpec{RunSpec: spec})
		if err != nil {
			t.Fatal(err)
		}
		st := waitJob(t, j)
		if st.State != enc.JobDone {
			t.Fatalf("reference run %d: state = %s (err %q)", i, st.State, st.Error)
		}
		want[i] = string(st.Results[0])
	}
	ref.Drain()

	// One fresh daemon, one job carrying every predictor.
	svc := mustNew(t, Config{Workers: 1, QueueBound: 8})
	defer svc.Drain()
	j, err := svc.Submit(enc.JobSpec{Runs: specs})
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, j)
	if st.State != enc.JobDone {
		t.Fatalf("multi-run job: state = %s (err %q)", st.State, st.Error)
	}
	if len(st.Results) != len(specs) {
		t.Fatalf("got %d results, want %d", len(st.Results), len(specs))
	}
	for i := range specs {
		if string(st.Results[i]) != want[i] {
			t.Errorf("run %d (%s): multi-run result differs from single-run job:\n multi-run:  %s\n single-run: %s",
				i, specs[i].Predictor, st.Results[i], want[i])
		}
	}
	if st.Progress.CacheHits != 0 {
		t.Errorf("multi-run job reported %d cache hits, want 0", st.Progress.CacheHits)
	}
	if st.Progress.AccessesDone != st.Progress.AccessesTotal {
		t.Errorf("progress = %d/%d, want complete", st.Progress.AccessesDone, st.Progress.AccessesTotal)
	}

	// Each run's result is individually content-addressed: resubmitting
	// one member alone must be a pure cache hit.
	j2, err := svc.Submit(enc.JobSpec{RunSpec: specs[2]})
	if err != nil {
		t.Fatal(err)
	}
	st2 := waitJob(t, j2)
	if st2.State != enc.JobDone {
		t.Fatalf("resubmit: state = %s (err %q)", st2.State, st2.Error)
	}
	if st2.Progress.CacheHits != 1 {
		t.Errorf("resubmit of one member: cache hits = %d, want 1", st2.Progress.CacheHits)
	}
	if string(st2.Results[0]) != want[2] {
		t.Errorf("cached member differs from single-run result")
	}
}

// TestInterleavedRunsInOrder: runs sharing a trace or a cell with other
// work between them in the job still arrive in submission order with the
// right labels.
func TestInterleavedRunsInOrder(t *testing.T) {
	svc := mustNew(t, Config{Workers: 1, QueueBound: 8})
	defer svc.Drain()

	runs := []enc.RunSpec{
		seedRun("em3d", 20_000, 1, "a"),
		{Predictor: "stride", Workload: "DB2", Accesses: 20_000, Seed: 1, Label: "b"},
		{Predictor: "sms", Workload: "em3d", Accesses: 20_000, Seed: 1, Label: "c"},
		seedRun("em3d", 20_000, 7920, "d"),
	}
	j, err := svc.Submit(enc.JobSpec{Runs: runs})
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, j)
	if st.State != enc.JobDone {
		t.Fatalf("state = %s (err %q)", st.State, st.Error)
	}
	for i, want := range []string{"a", "b", "c", "d"} {
		var res struct {
			Label string `json:"label"`
		}
		if err := json.Unmarshal(st.Results[i], &res); err != nil {
			t.Fatalf("result %d: %v", i, err)
		}
		if res.Label != want {
			t.Errorf("result %d: label = %q, want %q", i, res.Label, want)
		}
	}
}

// watchProgress samples a job's AccessesDone on every change notification
// until the job ends, then delivers the samples (the last one taken after
// Done).
func watchProgress(j *Job) <-chan []uint64 {
	ch, stop := j.Subscribe()
	out := make(chan []uint64, 1)
	go func() {
		defer stop()
		var seen []uint64
		for {
			select {
			case <-ch:
				seen = append(seen, j.Status().Progress.AccessesDone)
			case <-j.Done():
				out <- append(seen, j.Status().Progress.AccessesDone)
				return
			}
		}
	}()
	return out
}

// TestConcurrentJobsShareKeys: two multi-run jobs run at once on two
// workers, each computing its runs concurrently, and the second shares
// half of the first's keys. Every result must be byte-identical to the
// same run as a single-run job; each unique key is computed exactly once
// (whichever job claims it first) and counted as one cache miss, every
// other run is exactly one cache hit; and each job's progress only moves
// forward, ending at its AccessesTotal.
func TestConcurrentJobsShareKeys(t *testing.T) {
	const accesses = 10_000
	var a, b []enc.RunSpec
	for _, pred := range []string{"stride", "sms", "tms", "stems"} {
		for _, seed := range []int64{1, 7920} {
			a = append(a, enc.RunSpec{Predictor: pred, Workload: "em3d", Accesses: accesses, Seed: seed})
		}
		b = append(b,
			enc.RunSpec{Predictor: pred, Workload: "em3d", Accesses: accesses, Seed: 1},
			enc.RunSpec{Predictor: pred, Workload: "DB2", Accesses: accesses, Seed: 1})
	}
	unique := len(a) + len(b)/2

	// Reference bytes: every distinct spec as its own single-run job.
	ref := mustNew(t, Config{Workers: 1, QueueBound: 32})
	want := map[string]string{}
	for _, spec := range append(append([]enc.RunSpec(nil), a...), b...) {
		js, _ := json.Marshal(spec)
		if _, ok := want[string(js)]; ok {
			continue
		}
		st := waitJob(t, mustSubmit(t, ref, enc.JobSpec{RunSpec: spec}))
		if st.State != enc.JobDone {
			t.Fatalf("reference %s: state = %s (err %q)", js, st.State, st.Error)
		}
		want[string(js)] = string(st.Results[0])
	}
	ref.Drain()
	if len(want) != unique {
		t.Fatalf("%d distinct specs, want %d", len(want), unique)
	}

	svc := mustNew(t, Config{Workers: 2, QueueBound: 8})
	defer svc.Drain()
	jobs := []*Job{ // Submit normalizes its runs in place: hand it copies
		mustSubmit(t, svc, enc.JobSpec{Runs: append([]enc.RunSpec(nil), a...)}),
		mustSubmit(t, svc, enc.JobSpec{Runs: append([]enc.RunSpec(nil), b...)}),
	}
	progress := []<-chan []uint64{watchProgress(jobs[0]), watchProgress(jobs[1])}
	hits := 0
	for n, runs := range [][]enc.RunSpec{a, b} {
		st := waitJob(t, jobs[n])
		if st.State != enc.JobDone {
			t.Fatalf("job %d: state = %s (err %q)", n, st.State, st.Error)
		}
		for i, spec := range runs {
			js, _ := json.Marshal(spec)
			if string(st.Results[i]) != want[string(js)] {
				t.Errorf("job %d run %d: result differs from single-run job:\n got:  %s\n want: %s",
					n, i, st.Results[i], want[string(js)])
			}
		}
		hits += st.Progress.CacheHits
		seen := <-progress[n]
		for k := 1; k < len(seen); k++ {
			if seen[k] < seen[k-1] {
				t.Errorf("job %d progress moved backwards: %d after %d", n, seen[k], seen[k-1])
			}
		}
		if last := seen[len(seen)-1]; last != st.Progress.AccessesTotal {
			t.Errorf("job %d progress ended at %d, want %d", n, last, st.Progress.AccessesTotal)
		}
	}
	m := svc.Metrics()
	if m.RunsComputed != uint64(unique) {
		t.Errorf("runs computed = %d, want %d (one per unique key)", m.RunsComputed, unique)
	}
	if shared := len(a) + len(b) - unique; hits != shared || m.CacheHits != uint64(shared) {
		t.Errorf("cache hits: jobs %d, service %d, want %d each", hits, m.CacheHits, shared)
	}
	if m.CacheMisses != uint64(unique) {
		t.Errorf("cache misses = %d, want %d (one per computed key)", m.CacheMisses, unique)
	}
}

// awaitRunning watches a running job until pred holds for its status,
// then cancels the job and requires it to end canceled. It fails if the
// job ends first or pred does not hold within a minute.
func awaitRunning(t *testing.T, svc *Service, j *Job, pred func(enc.JobStatus) bool) enc.JobStatus {
	t.Helper()
	ch, stop := j.Subscribe()
	defer stop()
	deadline := time.After(time.Minute)
	var st enc.JobStatus
	for st = j.Status(); st.State != enc.JobRunning || !pred(st); st = j.Status() {
		select {
		case <-ch:
		case <-j.Done():
			end := j.Status()
			t.Fatalf("job ended before the awaited status: %s, runs_done %d, %d results",
				end.State, end.Progress.RunsDone, len(end.Results))
		case <-deadline:
			t.Fatalf("awaited status never seen: last %s, runs_done %d, %d results",
				st.State, st.Progress.RunsDone, len(st.Results))
		}
	}
	if err := svc.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	if end := waitJob(t, j); end.State != enc.JobCanceled {
		t.Errorf("after cancel: state = %s (%s), want canceled", end.State, end.Error)
	}
	return st
}

// shortAndLong is a job's two runs: one that lands in milliseconds and
// one that replays for seconds.
var shortAndLong = []enc.RunSpec{
	{Predictor: "none", Workload: "em3d", Accesses: 20_000},
	{Predictor: "stems", Workload: "DB2", Accesses: 2_000_000},
}

// TestRunLandsWhileLaterRunReplays: a multi-run job counts a run done and
// reports its result as soon as it lands, while a later run is still
// replaying.
func TestRunLandsWhileLaterRunReplays(t *testing.T) {
	svc := mustNew(t, Config{Workers: 1, QueueBound: 4})
	defer svc.Drain()
	j := mustSubmit(t, svc, enc.JobSpec{Runs: append([]enc.RunSpec(nil), shortAndLong...)})
	st := awaitRunning(t, svc, j, func(st enc.JobStatus) bool { return st.Progress.RunsDone == 1 })
	if len(st.Results) != 1 {
		t.Errorf("runs_done 1 while running, but %d results, want 1", len(st.Results))
	}
}

// TestResultsAreRunOrderPrefix: a run that lands before an earlier run is
// counted done at once, but its result is reported only when every
// earlier run has landed, so results stay in run order.
func TestResultsAreRunOrderPrefix(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs two runs of one job replaying at once (GOMAXPROCS >= 2)")
	}
	svc := mustNew(t, Config{Workers: 1, QueueBound: 4})
	defer svc.Drain()
	j := mustSubmit(t, svc, enc.JobSpec{Runs: []enc.RunSpec{shortAndLong[1], shortAndLong[0]}})
	st := awaitRunning(t, svc, j, func(st enc.JobStatus) bool { return st.Progress.RunsDone == 1 })
	if len(st.Results) != 0 {
		t.Errorf("run 1 landed before run 0, but %d results reported, want 0", len(st.Results))
	}
}
