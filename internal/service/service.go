// Package service is the engine-facing half of stemsd: a long-running
// simulation scheduler wrapping the public stems API. It owns a bounded
// FIFO job queue drained by a worker pool (internal/par.Pool), per-job
// context cancellation, a content-addressed result cache (canonical hash
// of predictor + effective options + workload + seed + trace length, with
// single-flight de-duplication of concurrent identical runs), and one
// shared trace arena so concurrent jobs over the same workload replay one
// resident trace. internal/server exposes it over HTTP.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"time"

	"stems"
	"stems/internal/cluster"
	"stems/internal/enc"
	"stems/internal/obs"
	"stems/internal/par"
	"stems/internal/store"
)

// Submission errors (beyond ErrInvalidSpec, which validate.go owns).
var (
	// ErrQueueFull reports that the job queue is at capacity; retry later.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrDraining reports a submission during shutdown.
	ErrDraining = errors.New("service: draining, not accepting jobs")
	// ErrNotFound reports an unknown job ID.
	ErrNotFound = errors.New("service: no such job")
)

// Config sizes a Service. Zero values select the defaults.
type Config struct {
	// Workers is the number of concurrent simulation workers
	// (default GOMAXPROCS).
	Workers int
	// QueueBound caps queued-but-unstarted jobs (default 64); beyond it
	// Submit sheds load with ErrQueueFull.
	QueueBound int
	// CacheBound caps result-cache entries, LRU-evicted (default 256).
	CacheBound int
	// TraceBound caps arena-resident workload traces, LRU-evicted
	// (default 8, raised to Workers when smaller to keep eviction of a
	// trace another worker is replaying rare). The LRU is touched at run
	// start only, so an eviction during a long replay is possible — it
	// costs a regeneration on the next run of that trace, never
	// correctness, and the replaying worker's reference keeps the evicted
	// trace alive until it finishes (peak memory can briefly exceed the
	// bound). A suite trace costs 5.3-6.3 bytes/access resident, so the
	// default holds ~20MB of the suite's 400k-access traces.
	TraceBound int
	// RetainJobs caps retained terminal jobs (default 1024): beyond it
	// the oldest done/failed/canceled jobs — with their statuses and
	// result documents — are forgotten at the next submission, so a
	// long-lived daemon's job table stays bounded like its queue, result
	// cache, and arena. Queued and running jobs are never evicted; fetch
	// results before they rotate out (the result cache still answers a
	// resubmission without recomputing).
	RetainJobs int
	// Store, when non-nil, is the disk tier of the result cache: every
	// computed result is written through to it, and a memory-tier miss
	// consults it before simulating — so a restarted daemon opened on
	// the same directory answers repeat jobs from disk with zero runs
	// computed. The service does not close it; the owner does, after
	// Drain.
	Store *store.Store
	// Peers, when non-empty, is the cluster's full shard map (every
	// daemon's base URL, this one included). The service uses it for
	// observability only — /metrics reports how submitted runs
	// distribute over their owners — routing itself is the cluster
	// client's job, and a daemon always executes what it is asked to
	// (content addressing makes serving a non-owned run correct).
	Peers []string
	// Self is this daemon's own base URL within Peers; when set,
	// /metrics additionally counts misrouted runs (owned by another
	// peer).
	Self string
	// Obs, when non-nil, is the metrics registry the service registers
	// its counters, gauges, and histograms in (default: a fresh private
	// registry). Pass a shared registry so other layers' series — the
	// HTTP server's per-route histograms, say — land in the same
	// Prometheus exposition.
	Obs *obs.Registry
	// Logger, when non-nil, receives job-lifecycle logs (default:
	// discard).
	Logger *slog.Logger
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueBound <= 0 {
		c.QueueBound = 64
	}
	if c.CacheBound <= 0 {
		c.CacheBound = 256
	}
	if c.TraceBound <= 0 {
		c.TraceBound = 8
	}
	if c.TraceBound < c.Workers {
		// At least one resident trace per concurrent worker, so parallel
		// jobs over distinct workloads rarely evict a trace another
		// worker still needs (see the TraceBound comment for the residual
		// mid-replay eviction case).
		c.TraceBound = c.Workers
	}
	if c.RetainJobs <= 0 {
		c.RetainJobs = 1024
	}
}

// Service is the stemsd core: it accepts job specs, schedules them on the
// worker pool, and retains their statuses and results. Safe for
// concurrent use.
type Service struct {
	cfg   Config
	start time.Time

	baseCtx context.Context
	abort   context.CancelFunc

	pool  *par.Pool
	cache *resultCache
	arena *stems.Arena

	// shard is the cluster's shard map (nil standalone); selfIdx is this
	// daemon's index within it (-1 when unknown). peerRuns counts
	// submitted runs by owning peer, index-aligned with shard.Peers().
	shard     *cluster.Map
	selfIdx   int
	peerRuns  []*obs.Counter
	misrouted *obs.Counter

	// obs is the metrics registry every counter below lives in — the
	// JSON /metrics document and the Prometheus exposition read the same
	// values, so the two views can never disagree. log receives
	// job-lifecycle events; rate tracks replayed accesses over the
	// trailing 60s for accesses_per_sec_1m.
	obs  *obs.Registry
	log  *slog.Logger
	rate *obs.Rate

	// phaseHist aggregates phase span latencies service-wide, one
	// histogram per enc.PhaseNames entry (jobs additionally keep their
	// own per-phase totals for JobStatus).
	phaseHist [enc.NumPhases]*obs.Histogram

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // insertion order, for listing
	nextID   uint64
	draining bool

	// doneHooks run synchronously at every terminal transition — on the
	// worker for executed jobs, on the canceller for queued cancels — so
	// Drain returning means every completion hook has run. metricsHooks
	// let other subsystems (scheduler, notifiers) extend the JSON
	// /metrics document.
	doneHooks    []func(enc.JobStatus)
	metricsHooks []func(*enc.Metrics)

	// arenaLRU tracks resident trace keys most-recent-first so the arena
	// stays bounded in a long-lived daemon.
	arenaLRU []arenaKey

	jobsSubmitted *obs.Counter
	gridJobs      *obs.Counter
	jobsCompleted *obs.Counter
	jobsFailed    *obs.Counter
	jobsCanceled  *obs.Counter
	runsComputed  *obs.Counter
	accessesSim   *obs.Counter
	traceHits     *obs.Counter
}

type arenaKey struct {
	name string
	seed int64
	n    int
}

// New starts a Service with cfg's worker pool running. An invalid peer
// list (empty or duplicate entries) fails construction.
func New(cfg Config) (*Service, error) {
	cfg.fill()
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:     cfg,
		start:   time.Now(),
		baseCtx: ctx,
		abort:   cancel,
		pool:    par.NewPool(ctx, cfg.Workers, cfg.QueueBound),
		cache:   newResultCache(cfg.CacheBound, cfg.Store),
		arena:   stems.NewArena(),
		jobs:    make(map[string]*Job),
		selfIdx: -1,
		obs:     reg,
		log:     logger,
		rate:    obs.NewRate(),
	}
	if len(cfg.Peers) > 0 {
		shard, err := cluster.NewMap(cfg.Peers)
		if err != nil {
			cancel()
			s.pool.Close()
			return nil, err
		}
		s.shard = shard
		if cfg.Self != "" {
			s.selfIdx = shard.Index(cfg.Self)
			if s.selfIdx < 0 {
				cancel()
				s.pool.Close()
				return nil, fmt.Errorf("service: self %q not in peers %v", cfg.Self, shard.Peers())
			}
		}
	}
	s.register()
	return s, nil
}

// register wires every service metric into the registry. Hot counters
// (bumped from workers and progress callbacks) are owned obs.Counters;
// values already guarded by existing locks — cache totals, arena stats,
// pool depth, store residency — export as callbacks evaluated per
// scrape, so no state moves and no lock is taken twice.
func (s *Service) register() {
	r := s.obs
	s.jobsSubmitted = r.Counter("stemsd_jobs_submitted_total", "Jobs accepted by Submit.")
	s.gridJobs = r.Counter("stemsd_grid_jobs_total", "Accepted jobs submitted as server-side sweep grids.")
	s.jobsCompleted = r.Counter("stemsd_jobs_completed_total", "Jobs finished in state done.")
	s.jobsFailed = r.Counter("stemsd_jobs_failed_total", "Jobs finished in state failed.")
	s.jobsCanceled = r.Counter("stemsd_jobs_canceled_total", "Jobs finished in state canceled.")
	s.runsComputed = r.Counter("stemsd_runs_computed_total", "Runs simulated (not served from any cache tier).")
	s.accessesSim = r.Counter("stemsd_accesses_simulated_total", "Trace accesses replayed across all runs.")

	r.Gauge("stemsd_uptime_seconds", "Seconds since the service started.",
		func() float64 { return time.Since(s.start).Seconds() })
	r.Gauge("stemsd_workers", "Simulation worker pool size.",
		func() float64 { return float64(s.cfg.Workers) })
	r.Gauge("stemsd_queue_depth", "Queued-but-unstarted jobs.",
		func() float64 { return float64(s.pool.QueueDepth()) })
	r.Gauge("stemsd_queue_bound", "Job queue capacity.",
		func() float64 { return float64(s.cfg.QueueBound) })
	r.Gauge("stemsd_accesses_per_sec_1m", "Trace accesses replayed per second over the trailing 60s.",
		s.rate.PerSec)

	r.FuncCounter("stemsd_cache_hits_total", "Result-cache hits (memory, disk, and shared-flight).",
		func() float64 { h, _, _ := s.cache.counters(); return float64(h) })
	r.FuncCounter("stemsd_cache_misses_total", "Result-cache misses.",
		func() float64 { _, m, _ := s.cache.counters(); return float64(m) })
	r.Gauge("stemsd_cache_entries", "Resident result-cache entries.",
		func() float64 { _, _, e := s.cache.counters(); return float64(e) })
	r.Gauge("stemsd_cache_bound", "Result-cache capacity.",
		func() float64 { return float64(s.cfg.CacheBound) })

	r.FuncCounter("stemsd_trace_generations_total", "Workload traces generated into the arena.",
		func() float64 { return float64(s.arena.Stats().Generations) })
	s.traceHits = r.Counter("stemsd_trace_hits_total", "Arena hits (runs served an already-resident trace).")
	r.Gauge("stemsd_traces_resident", "Traces resident in the arena.",
		func() float64 { return float64(s.arena.Stats().Resident) })

	for i, name := range enc.PhaseNames {
		s.phaseHist[i] = r.Histogram("stemsd_job_phase_seconds",
			"Job phase span latency by phase (queue wait, trace resolve, simulate, encode, cache/store write).",
			obs.L("phase", name))
	}

	if st := s.cfg.Store; st != nil {
		r.Gauge("stemsd_store_entries", "Disk-tier resident entries.",
			func() float64 { return float64(st.Stats().Entries) })
		r.Gauge("stemsd_store_bytes", "Disk-tier resident payload bytes.",
			func() float64 { return float64(st.Stats().Bytes) })
		r.FuncCounter("stemsd_store_hits_total", "Disk-tier read hits.",
			func() float64 { return float64(st.Stats().Hits) })
		r.FuncCounter("stemsd_store_misses_total", "Disk-tier read misses.",
			func() float64 { return float64(st.Stats().Misses) })
		r.FuncCounter("stemsd_store_evictions_total", "Disk-tier entries evicted to respect the byte bound.",
			func() float64 { return float64(st.Stats().Evictions) })
		r.FuncCounter("stemsd_store_corrupt_dropped_total", "Disk-tier entries dropped on CRC or frame damage.",
			func() float64 { return float64(st.Stats().CorruptDropped) })
		read, write := st.Latencies()
		r.AttachHistogram("stemsd_store_read_seconds", "Disk-tier read latency (entry decode included).", read)
		r.AttachHistogram("stemsd_store_write_seconds", "Disk-tier write latency (fsync-free append).", write)
	}

	if s.shard != nil {
		s.misrouted = r.Counter("stemsd_misrouted_runs_total", "Runs submitted here but owned by another peer.")
		peers := s.shard.Peers()
		s.peerRuns = make([]*obs.Counter, len(peers))
		for i, p := range peers {
			s.peerRuns[i] = r.Counter("stemsd_peer_runs_total", "Submitted runs by owning peer.", obs.L("peer", p))
		}
	}
}

// Obs returns the service's metrics registry — the HTTP layer registers
// its per-route series here and serves the Prometheus exposition from it.
func (s *Service) Obs() *obs.Registry { return s.obs }

// notePhase records one phase span on both the job (surfaced in its
// status document) and the service-wide phase histogram.
func (s *Service) notePhase(j *Job, phase int, d time.Duration) {
	j.notePhase(phase, d)
	s.phaseHist[phase].Observe(d)
}

// noteAccesses counts replayed accesses into both the lifetime counter
// and the trailing-window rate meter. It runs inside replay progress
// callbacks — the hot path — and allocates nothing.
func (s *Service) noteAccesses(delta uint64) {
	s.accessesSim.Add(delta)
	s.rate.Add(delta)
}

// resolveTrace materializes a run's workload trace through the shared
// arena ahead of simulation so trace resolution (generation, or an
// arena hit) is timed as its own phase; the Runner's internal arena
// lookup then finds the trace resident. That second lookup is the arena's
// hit, not the run's, so the service counts trace hits here: a run whose
// Get did not generate was served a resident trace. Lookup errors are
// ignored here — FromSpec surfaces them at simulate time with full
// context. A canceled run skips generation (its Run exits before
// replaying).
func (s *Service) resolveTrace(ctx context.Context, j *Job, name string, seed int64, n int) {
	if wl, err := stems.WorkloadByName(name); err == nil && ctx.Err() == nil {
		start := time.Now()
		generated := false
		s.arena.Get(name, seed, n, func() []stems.Access {
			generated = true
			return wl.Generate(seed, n)
		})
		if !generated {
			s.traceHits.Inc()
		}
		s.notePhase(j, enc.PhaseResolve, time.Since(start))
	}
	// LRU bookkeeping runs after the Get so the bound is enforced against
	// traces actually resident: bumping first opens a window where another
	// worker's eviction drops this key from the LRU before the trace
	// exists, leaving the generation untracked and the arena over bound.
	s.noteArenaUse(name, seed, n)
}

// Submit validates spec, enqueues a job, and returns it in queued state.
// It fails with ErrInvalidSpec (descriptive, field-level), ErrQueueFull
// (back off and retry), or ErrDraining.
func (s *Service) Submit(spec enc.JobSpec) (*Job, error) {
	runs, err := resolveSpec(&spec)
	if err != nil {
		return nil, err
	}
	if s.shard != nil {
		// Routing observability: bucket each run by the peer the shard
		// map says owns it. A daemon's own bucket dominating means
		// clients route well; weight elsewhere means they bypass the map
		// or are covering for a down owner.
		for i := range runs {
			owner := s.shard.Owner(runs[i].key)
			s.peerRuns[owner].Add(1)
			if s.selfIdx >= 0 && owner != s.selfIdx {
				s.misrouted.Add(1)
			}
		}
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	s.nextID++
	id := fmt.Sprintf("j-%06d", s.nextID)
	j := newJob(id, spec, runs, s.baseCtx)
	if err := s.pool.Submit(func(context.Context) { s.execute(j) }); err != nil {
		s.nextID--
		s.mu.Unlock()
		j.cancel() // release the context before dropping the job
		if errors.Is(err, par.ErrQueueFull) {
			return nil, ErrQueueFull
		}
		return nil, ErrDraining
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.pruneLocked()
	s.mu.Unlock()
	s.jobsSubmitted.Add(1)
	if spec.Grid != nil {
		s.gridJobs.Add(1)
	}
	s.log.Debug("job submitted", "job", id, "runs", len(runs))
	return j, nil
}

// OnJobDone registers a completion hook, called with the terminal status
// of every job — the notifier fan-out and schedule attribution attach
// here. Hooks run synchronously on the finishing goroutine (a worker, or
// the canceller of a still-queued job): register only fast hooks, and
// register them before traffic. Because workers run hooks inline, Drain
// returning implies every completed job's hooks have run.
func (s *Service) OnJobDone(fn func(enc.JobStatus)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.doneHooks = append(s.doneHooks, fn)
}

// AddMetricsHook registers an extension of the JSON /metrics document;
// each hook edits the snapshot before Metrics returns it. The scheduler
// and notifier sections attach here so daemon wiring stays in cmd/stemsd.
func (s *Service) AddMetricsHook(fn func(*enc.Metrics)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.metricsHooks = append(s.metricsHooks, fn)
}

// fireDone runs the completion hooks for a job that just reached a
// terminal state.
func (s *Service) fireDone(j *Job) {
	s.mu.Lock()
	hooks := s.doneHooks
	s.mu.Unlock()
	if len(hooks) == 0 {
		return
	}
	st := j.Status()
	for _, fn := range hooks {
		fn(st)
	}
}

// pruneLocked forgets the oldest terminal jobs beyond the retention
// bound. Non-terminal jobs are always kept (and keep their slots until
// enough terminal ones exist to evict). Callers hold s.mu.
func (s *Service) pruneLocked() {
	excess := len(s.order) - s.cfg.RetainJobs
	if excess <= 0 {
		return
	}
	keep := s.order[:0]
	for _, id := range s.order {
		if excess > 0 && s.jobs[id].Status().State.Terminal() {
			delete(s.jobs, id)
			excess--
			continue
		}
		keep = append(keep, id)
	}
	s.order = keep
}

// Job returns a job by ID.
func (s *Service) Job(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return j, nil
}

// Jobs lists every retained job in submission order.
func (s *Service) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, len(s.order))
	for i, id := range s.order {
		out[i] = s.jobs[id]
	}
	return out
}

// Cancel requests cancellation of a job. Cancelling a queued job takes
// effect immediately; a running job winds down within one replay block.
// Cancelling a terminal job is a no-op.
func (s *Service) Cancel(id string) error {
	j, err := s.Job(id)
	if err != nil {
		return err
	}
	if j.requestCancel(context.Canceled, s.jobsCanceled) {
		// The job was still queued and this call finished (and counted)
		// it; a running job is finished, counted, and hooked by its worker
		// when it winds down.
		s.fireDone(j)
	}
	return nil
}

// Drain stops intake (Submit fails with ErrDraining) and blocks until
// every queued and in-flight job has reached a terminal state — the
// SIGTERM path of cmd/stemsd. Call Abort first (or concurrently) to
// cancel outstanding jobs instead of completing them.
func (s *Service) Drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.pool.Close()
}

// Abort cancels the context every job runs under: queued jobs cancel as
// workers reach them, running jobs stop at the next block boundary. It
// does not wait; follow with Drain.
func (s *Service) Abort() { s.abort() }

// Predictors lists the registered predictor names.
func (s *Service) Predictors() []string { return stems.Predictors() }

// PredictorInfos lists every registered predictor with its knob schema —
// the /v1/predictors document.
func (s *Service) PredictorInfos() []enc.PredictorInfo { return enc.PredictorInfos() }

// Workloads lists the paper suite in wire form.
func (s *Service) Workloads() []enc.WorkloadInfo {
	return enc.WorkloadInfos(stems.Workloads())
}

// Metrics snapshots the service counters for /metrics.
func (s *Service) Metrics() enc.Metrics {
	hits, misses, entries := s.cache.counters()
	ast := s.arena.Stats()
	uptime := time.Since(s.start).Seconds()
	m := enc.Metrics{
		UptimeSec:         uptime,
		Workers:           s.cfg.Workers,
		QueueDepth:        s.pool.QueueDepth(),
		QueueBound:        s.cfg.QueueBound,
		JobsSubmitted:     s.jobsSubmitted.Value(),
		JobsCompleted:     s.jobsCompleted.Value(),
		JobsFailed:        s.jobsFailed.Value(),
		JobsCanceled:      s.jobsCanceled.Value(),
		GridJobs:          s.gridJobs.Value(),
		RunsComputed:      s.runsComputed.Value(),
		CacheHits:         hits,
		CacheMisses:       misses,
		CacheEntries:      entries,
		CacheBound:        s.cfg.CacheBound,
		AccessesSimulated: s.accessesSim.Value(),
		TracesResident:    ast.Resident,
		TraceGenerations:  ast.Generations,
		TraceHits:         int(s.traceHits.Value()),
	}
	if total := hits + misses; total > 0 {
		m.CacheHitRate = float64(hits) / float64(total)
	}
	if uptime > 0 {
		m.AccessesPerSec = float64(m.AccessesSimulated) / uptime
	}
	m.AccessesPerSec1m = s.rate.PerSec()
	if s.cfg.Store != nil {
		st := s.cfg.Store.Stats()
		m.Store = &enc.StoreMetrics{
			Dir:            s.cfg.Store.Dir(),
			Entries:        st.Entries,
			Bytes:          st.Bytes,
			Bound:          s.cfg.Store.Bound(),
			Hits:           st.Hits,
			Misses:         st.Misses,
			Evictions:      st.Evictions,
			CorruptDropped: st.CorruptDropped,
			ReadLatency:    enc.LatencyFromSnapshot(st.ReadLatency),
			WriteLatency:   enc.LatencyFromSnapshot(st.WriteLatency),
		}
	}
	if s.shard != nil {
		cm := &enc.ClusterMetrics{
			Peers:         s.shard.Peers(),
			MisroutedRuns: s.misrouted.Value(),
			PeerRuns:      make([]uint64, len(s.peerRuns)),
		}
		if s.selfIdx >= 0 {
			cm.Self = s.shard.Peers()[s.selfIdx]
		}
		for i := range s.peerRuns {
			cm.PeerRuns[i] = s.peerRuns[i].Value()
		}
		m.Cluster = cm
	}
	s.mu.Lock()
	hooks := s.metricsHooks
	s.mu.Unlock()
	for _, fn := range hooks {
		fn(&m)
	}
	return m
}

// execute is the worker body: it runs the job (see runJob) and moves it
// to its terminal state. The terminal state is counted before it is
// published, so a client that has seen the job end also sees it in the
// service counters.
func (s *Service) execute(j *Job) {
	if !j.begin() {
		// Cancelled while queued; requestCancel finished and counted it.
		return
	}
	s.notePhase(j, enc.PhaseQueue, time.Since(j.created))
	s.log.Debug("job started", "job", j.ID, "runs", len(j.runs))
	switch err := s.runJob(j); {
	case err == nil:
		j.finish(enc.JobDone, nil, s.jobsCompleted)
		s.log.Info("job done", "job", j.ID, "runs", len(j.runs),
			"elapsed", time.Since(j.created))
	case canceled(err):
		j.finish(enc.JobCanceled, err, s.jobsCanceled)
		s.log.Info("job canceled", "job", j.ID)
	default:
		j.finish(enc.JobFailed, err, s.jobsFailed)
		s.log.Warn("job failed", "job", j.ID, "err", err)
	}
	s.fireDone(j)
}

// canceled reports whether err is a context cancellation rather than a
// run failure.
func canceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// runJob produces the job's runs, up to GOMAXPROCS at a time, and lands
// each labeled result on the job as soon as it is ready. The first run
// to fail cancels the rest.
func (s *Service) runJob(j *Job) error {
	_, err := par.Map(j.ctx, len(j.runs), 0, func(ctx context.Context, i int) (struct{}, error) {
		r := &j.runs[i]
		data, fromCache, err := s.produce(ctx, j, r)
		if err != nil {
			if canceled(err) {
				return struct{}{}, err
			}
			return struct{}{}, fmt.Errorf("run %d (%s/%s): %w", i, r.spec.Predictor, r.spec.Workload, err)
		}
		encStart := time.Now()
		labeled, err := enc.Relabel(data, r.spec.Label)
		s.notePhase(j, enc.PhaseEncode, time.Since(encStart))
		if err != nil {
			return struct{}{}, err
		}
		j.land(i, labeled, r.n, fromCache)
		return struct{}{}, nil
	})
	return err
}

// produce returns one run's canonical (label-less) result bytes and
// whether a cache served them. Each attempt asks the cache once: a hit
// returns its bytes, another run's flight is waited on, and a flight
// this run leads is computed and resolved here. At most one computation
// per content address runs at a time.
func (s *Service) produce(ctx context.Context, j *Job, r *resolvedRun) (data []byte, fromCache bool, err error) {
	for {
		data, fl, lead := s.cache.lookup(r.key)
		if fl == nil {
			return data, true, nil
		}
		if lead {
			data, err = s.compute(ctx, j, r)
			storeStart := time.Now()
			s.cache.resolve(r.key, fl, data, err)
			s.notePhase(j, enc.PhaseStore, time.Since(storeStart))
			return data, false, err
		}
		select {
		case <-fl.done:
			if fl.err == nil {
				s.cache.sharedHit()
				return fl.data, true, nil
			}
			// The leader failed — most likely its own job was cancelled,
			// which says nothing about ours. Its flight is gone from the
			// table; ask the cache again.
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
}

// compute simulates one run and returns its canonical result bytes. The
// run's trace is resolved just before it replays, and its progress adds
// to the job's as it replays.
func (s *Service) compute(ctx context.Context, j *Job, r *resolvedRun) ([]byte, error) {
	var prev uint64
	runner, err := stems.FromSpec(r.spec,
		stems.WithSharedTrace(s.arena),
		stems.WithRunProgress(func(done uint64) {
			s.noteAccesses(done - prev)
			j.addProgress(done - prev)
			prev = done
		}))
	if err != nil {
		return nil, err
	}
	s.resolveTrace(ctx, j, r.spec.Workload, r.spec.Seed, r.n)
	simStart := time.Now()
	res, err := runner.Run(ctx)
	s.notePhase(j, enc.PhaseSimulate, time.Since(simStart))
	if err != nil {
		return nil, err
	}
	s.runsComputed.Add(1)
	encStart := time.Now()
	data, err := json.Marshal(enc.FromResult("", res))
	s.notePhase(j, enc.PhaseEncode, time.Since(encStart))
	return data, err
}

// noteArenaUse bumps a trace key to the front of the arena LRU, dropping
// the least-recently-used trace beyond the bound so a daemon serving many
// distinct workloads doesn't accumulate every trace it ever generated.
func (s *Service) noteArenaUse(name string, seed int64, n int) {
	k := arenaKey{name: name, seed: seed, n: n}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, have := range s.arenaLRU {
		if have == k {
			copy(s.arenaLRU[1:i+1], s.arenaLRU[:i])
			s.arenaLRU[0] = k
			return
		}
	}
	s.arenaLRU = append([]arenaKey{k}, s.arenaLRU...)
	for len(s.arenaLRU) > s.cfg.TraceBound {
		evict := s.arenaLRU[len(s.arenaLRU)-1]
		s.arenaLRU = s.arenaLRU[:len(s.arenaLRU)-1]
		s.arena.Drop(evict.name, evict.seed, evict.n)
	}
}
