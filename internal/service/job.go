package service

import (
	"context"
	"encoding/json"
	"sync"
	"sync/atomic"
	"time"

	"stems/internal/enc"
	"stems/internal/obs"
)

// resolvedRun is one run of a job after validation: the normalized
// (canonical-knob) spec, the resolved trace length, and the
// content-address of its result. The spec itself rebuilds the Runner at
// execution time via stems.FromSpec — configuration travels as data,
// not as captured closures.
type resolvedRun struct {
	spec enc.RunSpec
	n    int
	key  string
}

// Job is one submitted unit of work: a single run or an ordered sweep of
// runs. Jobs move queued → running → {done, failed, canceled}; a Job is
// safe for concurrent use (the worker mutates it, HTTP handlers snapshot
// it, SSE subscribers watch it).
type Job struct {
	// ID is the service-assigned identifier ("j-000001").
	ID string

	spec enc.JobSpec
	runs []resolvedRun

	// ctx is cancelled by Cancel (and by service shutdown); the worker's
	// replay loop observes it once per block.
	ctx    context.Context
	cancel context.CancelFunc

	// accessesDone is atomic because the replay progress callback fires
	// every few thousand accesses — too hot for the job mutex.
	accessesDone  atomic.Uint64
	accessesTotal uint64

	// created stamps submission time; the queue phase span is the gap to
	// the worker's begin().
	created time.Time

	// Phase accounting (see enc.PhaseNames): total nanoseconds and span
	// counts per phase, atomics because workers record them while HTTP
	// handlers snapshot Status concurrently.
	phaseNanos  [enc.NumPhases]atomic.Int64
	phaseCounts [enc.NumPhases]atomic.Int64

	mu    sync.Mutex
	state enc.JobState
	err   error
	// results holds each run's labeled result at its run index, nil until
	// the run lands; prefix counts the leading runs that have all landed,
	// which is what Status reports. runsDone counts landed runs in any
	// order.
	results   []json.RawMessage
	prefix    int
	runsDone  int
	cacheHits int
	subs      map[chan struct{}]struct{}

	// done closes when the job reaches a terminal state.
	done chan struct{}
}

func newJob(id string, spec enc.JobSpec, runs []resolvedRun, parent context.Context) *Job {
	ctx, cancel := context.WithCancel(parent)
	var total uint64
	for _, r := range runs {
		total += uint64(r.n)
	}
	return &Job{
		ID:            id,
		spec:          spec,
		runs:          runs,
		ctx:           ctx,
		cancel:        cancel,
		accessesTotal: total,
		created:       time.Now(),
		results:       make([]json.RawMessage, len(runs)),
		state:         enc.JobQueued,
		subs:          make(map[chan struct{}]struct{}),
		done:          make(chan struct{}),
	}
}

// notePhase accumulates one span into a phase's total.
func (j *Job) notePhase(phase int, d time.Duration) {
	if d < 0 {
		d = 0
	}
	j.phaseNanos[phase].Add(int64(d))
	j.phaseCounts[phase].Add(1)
}

// phases snapshots the per-phase accounting in wire form — always all
// five, in enc.PhaseNames order.
func (j *Job) phases() []enc.PhaseSpan {
	out := make([]enc.PhaseSpan, enc.NumPhases)
	for i := range out {
		out[i] = enc.PhaseSpan{
			Phase: enc.PhaseNames[i],
			Nanos: j.phaseNanos[i].Load(),
			Count: j.phaseCounts[i].Load(),
		}
	}
	return out
}

// Done closes when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Status snapshots the job in wire form.
func (j *Job) Status() enc.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := enc.JobStatus{
		ID:     j.ID,
		State:  j.state,
		Spec:   j.spec,
		Phases: j.phases(),
		Progress: enc.JobProgress{
			RunsDone:      j.runsDone,
			RunsTotal:     len(j.runs),
			AccessesDone:  j.accessesDone.Load(),
			AccessesTotal: j.accessesTotal,
			CacheHits:     j.cacheHits,
		},
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.prefix > 0 {
		st.Results = append([]json.RawMessage(nil), j.results[:j.prefix]...)
	}
	return st
}

// Subscribe registers a change-notification channel: it receives (with
// capacity one, coalescing bursts) whenever the job's observable state
// advances. The caller snapshots Status on each wakeup and must call
// cancel when done. Terminal transitions also close Done, so a
// subscriber selecting on both never misses the end.
func (j *Job) Subscribe() (ch <-chan struct{}, cancel func()) {
	c := make(chan struct{}, 1)
	j.mu.Lock()
	j.subs[c] = struct{}{}
	j.mu.Unlock()
	return c, func() {
		j.mu.Lock()
		delete(j.subs, c)
		j.mu.Unlock()
	}
}

// notifyLocked pings every subscriber without blocking; a subscriber that
// has not consumed the previous ping coalesces. Callers hold j.mu.
func (j *Job) notifyLocked() {
	for c := range j.subs {
		select {
		case c <- struct{}{}:
		default:
		}
	}
}

// addProgress is the replay-loop callback target: it adds one run's newly
// replayed accesses and publishes the job total to subscribers. The runs
// of a job replay concurrently, so the total advances by atomic deltas.
func (j *Job) addProgress(delta uint64) {
	j.accessesDone.Add(delta)
	j.mu.Lock()
	j.notifyLocked()
	j.mu.Unlock()
}

// begin moves the job from queued to running when a worker picks it up.
// It reports false if the job was cancelled while queued (the worker
// then skips execution).
func (j *Job) begin() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != enc.JobQueued {
		return false
	}
	j.state = enc.JobRunning
	j.notifyLocked()
	return true
}

// land records run i's encoded result as it finishes: it counts the run
// done and extends the reported prefix over every run that has now
// landed behind the earliest one still out. fromCache credits the run's
// full access count (no replay happened) and the job's cache-hit
// counter.
func (j *Job) land(i int, result json.RawMessage, n int, fromCache bool) {
	if fromCache {
		j.accessesDone.Add(uint64(n))
	}
	j.mu.Lock()
	j.results[i] = result
	for j.prefix < len(j.results) && j.results[j.prefix] != nil {
		j.prefix++
	}
	j.runsDone++
	if fromCache {
		j.cacheHits++
	}
	j.notifyLocked()
	j.mu.Unlock()
}

// finish moves the job to a terminal state (idempotent: the first
// transition wins), adds it to the state's counter, and only then wakes
// subscribers and Done waiters.
func (j *Job) finish(state enc.JobState, err error, counter *obs.Counter) {
	j.mu.Lock()
	j.finishLocked(state, err, counter)
	j.mu.Unlock()
}

func (j *Job) finishLocked(state enc.JobState, err error, counter *obs.Counter) {
	if j.state.Terminal() {
		return
	}
	counter.Add(1)
	j.state = state
	if state == enc.JobFailed || state == enc.JobCanceled {
		j.err = err
	}
	j.cancel() // release the context resources either way
	close(j.done)
	j.notifyLocked()
}

// requestCancel cancels the job's context. A queued job is finished and
// counted on counter immediately (reported true — exactly one caller sees
// it, so the count stays exact under concurrent cancels); a running one
// is left for its worker to wind down (the replay loop notices within one
// block).
func (j *Job) requestCancel(cause error, counter *obs.Counter) bool {
	j.cancel()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == enc.JobQueued {
		j.finishLocked(enc.JobCanceled, cause, counter)
		return true
	}
	return false
}
