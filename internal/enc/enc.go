// Package enc is the wire encoding shared by every surface that ships
// simulation results and job specifications out of process: the stemsd
// HTTP server, the typed client in the public stems package, and the
// -json mode of cmd/sweep all marshal through the types here, so a result
// printed by the CLI is byte-for-byte diffable against the same
// configuration fetched from the service.
//
// All encoding goes through encoding/json with fixed struct field order,
// so marshaling the same value always produces identical bytes — the
// property the service's content-addressed result cache relies on.
package enc

import (
	"encoding/json"
	"fmt"

	"stems/internal/obs"
	"stems/internal/sim"
	"stems/internal/workload"
)

// RunSpec describes one simulation run in wire form. Zero fields select
// the service defaults: predictor "stems", workload "DB2", seed 1, the
// workload's default trace length, and the scaled system.
type RunSpec struct {
	// Predictor is a registered predictor name (see /v1/predictors).
	Predictor string `json:"predictor,omitempty"`
	// Workload is a paper-suite workload name (see /v1/workloads).
	Workload string `json:"workload,omitempty"`
	// Seed is the workload generator seed (non-negative; default 1).
	Seed int64 `json:"seed,omitempty"`
	// Accesses caps the trace length; 0 keeps the workload default.
	Accesses int `json:"accesses,omitempty"`
	// System selects the simulated node: "scaled" (default, the reduced
	// footprint the command-line tools use) or "paper" (full Table 1).
	System string `json:"system,omitempty"`
	// Label names the run in results; it does not affect the simulation
	// and is excluded from the result-cache key.
	Label string `json:"label,omitempty"`
	// Knobs overlays typed predictor/system parameter overrides by
	// registered knob name (see /v1/predictors for the schema):
	//
	//	"knobs": {"stems.rmob_entries": 65536, "scientific": false}
	//
	// Values are bare JSON numbers or booleans; unknown names, kind
	// mismatches, and out-of-bounds values are rejected field-by-field
	// with a 400. Knobs apply after the system and workload-class
	// defaults, and a knob spelled at its default value yields the same
	// effective configuration — and therefore the same result-cache
	// entry — as omitting it.
	Knobs map[string]sim.Value `json:"knobs,omitempty"`
}

// IsZero reports whether the spec is entirely unset. (RunSpec carries a
// map, so it is not ==-comparable.)
func (r RunSpec) IsZero() bool {
	return r.Predictor == "" && r.Workload == "" && r.Seed == 0 &&
		r.Accesses == 0 && r.System == "" && r.Label == "" && len(r.Knobs) == 0
}

// JobSpec is the body of POST /v1/jobs: exactly one of a single run
// (top-level RunSpec fields), a sweep (Runs), or a declarative grid
// (Grid).
type JobSpec struct {
	RunSpec
	// Runs, when non-empty, makes the job a sweep executing each run in
	// order. Runs sharing a configuration hit the result cache.
	Runs []RunSpec `json:"runs,omitempty"`
	// Grid, when non-nil, makes the job a server-side sweep grid: the
	// service expands the cartesian product into Runs (row-major, last
	// axis fastest), normalizes each cell, and deduplicates identical
	// cells through the content-addressed result cache. The submitted
	// Grid is retained in job status alongside the expanded Runs.
	Grid *GridSpec `json:"grid,omitempty"`
}

// RunSpecs flattens the job to its run list: Runs if present, otherwise
// the single top-level run.
func (s JobSpec) RunSpecs() []RunSpec {
	if len(s.Runs) > 0 {
		return s.Runs
	}
	return []RunSpec{s.RunSpec}
}

// Result is the canonical wire form of one simulation result: the raw
// counters of sim.Result plus the derived paper metrics, under stable
// snake_case keys. Marshaling the same Result always yields identical
// bytes (fixed field order, no maps).
type Result struct {
	Label              string  `json:"label,omitempty"`
	Predictor          string  `json:"predictor"`
	Accesses           uint64  `json:"accesses"`
	Reads              uint64  `json:"reads"`
	Writes             uint64  `json:"writes"`
	L1Hits             uint64  `json:"l1_hits"`
	L2Hits             uint64  `json:"l2_hits"`
	OffChipReads       uint64  `json:"off_chip_reads"`
	Covered            uint64  `json:"covered"`
	Overpredicted      uint64  `json:"overpredicted"`
	Fetched            uint64  `json:"fetched"`
	MetaTransfers      uint64  `json:"meta_transfers,omitempty"`
	ReconPlacedExact   uint64  `json:"recon_placed_exact,omitempty"`
	ReconPlacedNear    uint64  `json:"recon_placed_near,omitempty"`
	ReconDropped       uint64  `json:"recon_dropped,omitempty"`
	Cycles             uint64  `json:"cycles"`
	Coverage           float64 `json:"coverage"`
	OverpredictionRate float64 `json:"overprediction_rate"`
	ReconDropFraction  float64 `json:"recon_drop_fraction,omitempty"`
}

// FromResult converts an engine result to wire form under the given label.
func FromResult(label string, r sim.Result) Result {
	return Result{
		Label:              label,
		Predictor:          r.Prefetcher,
		Accesses:           r.Accesses,
		Reads:              r.Reads,
		Writes:             r.Writes,
		L1Hits:             r.L1Hits,
		L2Hits:             r.L2Hits,
		OffChipReads:       r.OffChipReads,
		Covered:            r.Covered,
		Overpredicted:      r.Overpredicted,
		Fetched:            r.Fetched,
		MetaTransfers:      r.MetaTransfers,
		ReconPlacedExact:   r.ReconPlacedExact,
		ReconPlacedNear:    r.ReconPlacedNear,
		ReconDropped:       r.ReconDropped,
		Cycles:             r.Cycles,
		Coverage:           r.Coverage(),
		OverpredictionRate: r.OverpredictionRate(),
		ReconDropFraction:  r.ReconDropFraction(),
	}
}

// Engine converts the wire result back to the engine's counter form (the
// derived rate fields are recomputed by sim.Result's methods, not stored).
func (r Result) Engine() sim.Result {
	return sim.Result{
		Prefetcher:       r.Predictor,
		Accesses:         r.Accesses,
		Reads:            r.Reads,
		Writes:           r.Writes,
		L1Hits:           r.L1Hits,
		L2Hits:           r.L2Hits,
		OffChipReads:     r.OffChipReads,
		Covered:          r.Covered,
		Overpredicted:    r.Overpredicted,
		Fetched:          r.Fetched,
		MetaTransfers:    r.MetaTransfers,
		ReconPlacedExact: r.ReconPlacedExact,
		ReconPlacedNear:  r.ReconPlacedNear,
		ReconDropped:     r.ReconDropped,
		Cycles:           r.Cycles,
	}
}

// Relabel returns encoded-result bytes with the label field replaced. The
// service's result cache stores label-less canonical bytes (the label is
// presentation, not configuration); this grafts a job's label back on
// without touching any other byte.
func Relabel(data []byte, label string) (json.RawMessage, error) {
	if label == "" {
		return json.RawMessage(data), nil
	}
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("enc: relabel: %w", err)
	}
	r.Label = label
	out, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("enc: relabel: %w", err)
	}
	return out, nil
}

// JobState is a job's lifecycle position.
type JobState string

// The job lifecycle: queued → running → one of the three terminal states.
// A queued job cancelled before a worker picks it up goes straight to
// JobCanceled.
const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// JobProgress is the replay position of a job across its runs.
type JobProgress struct {
	// RunsDone counts the job's runs that have finished, in any order: a
	// run counts as soon as it lands, even while an earlier run is still
	// replaying.
	RunsDone  int `json:"runs_done"`
	RunsTotal int `json:"runs_total"`
	// AccessesDone counts accesses accounted for so far — replayed by the
	// engine, or credited in full when a run is served from the result
	// cache.
	AccessesDone  uint64 `json:"accesses_done"`
	AccessesTotal uint64 `json:"accesses_total"`
	// CacheHits counts this job's runs served from the result cache.
	CacheHits int `json:"cache_hits"`
}

// The five phases of a job's lifecycle, in execution order — the spans
// JobStatus.Phases reports and the service's phase-latency histograms
// bucket. "queue" is the wait between submission and a worker picking
// the job up; "resolve" covers trace materialization through the arena;
// "simulate" is replay; "encode" is result marshaling and relabeling;
// "store" is the cache/disk write of computed results.
const (
	PhaseQueue = iota
	PhaseResolve
	PhaseSimulate
	PhaseEncode
	PhaseStore
)

// PhaseNames lists the job phases in execution order, indexed by the
// Phase* constants.
var PhaseNames = [...]string{"queue", "resolve", "simulate", "encode", "store"}

// NumPhases is the number of job phases.
const NumPhases = len(PhaseNames)

// PhaseSpan is the accumulated time a job spent in one phase. A sweep
// job passes through the non-queue phases once per computed run (cached
// runs skip them), so Count reports how many spans the total aggregates.
type PhaseSpan struct {
	// Phase is the span's name (see PhaseNames).
	Phase string `json:"phase"`
	// Nanos is the total time spent in the phase, in nanoseconds.
	Nanos int64 `json:"nanos"`
	// Count is the number of individual spans accumulated into Nanos.
	Count int64 `json:"count"`
}

// JobStatus is the wire form of GET /v1/jobs/{id} and of every SSE event.
type JobStatus struct {
	ID       string      `json:"id"`
	State    JobState    `json:"state"`
	Spec     JobSpec     `json:"spec"`
	Progress JobProgress `json:"progress"`
	// Phases reports where the job's wall-clock time went, one entry per
	// phase in PhaseNames order — all five always present, zero-valued
	// until the job reaches them.
	Phases []PhaseSpan `json:"phases,omitempty"`
	Error  string      `json:"error,omitempty"`
	// Results holds one canonical Result document per run, in run order:
	// the longest prefix of the run list whose runs have all landed. While
	// the job runs it grows as runs finish (a run that lands before an
	// earlier one appears when the earlier one lands); once the job is
	// done it holds every run. Raw bytes, so a cached result round-trips
	// through the API without re-marshaling drift.
	Results []json.RawMessage `json:"results,omitempty"`
}

// DecodedResults parses the raw result documents.
func (s JobStatus) DecodedResults() ([]Result, error) {
	out := make([]Result, len(s.Results))
	for i, raw := range s.Results {
		if err := json.Unmarshal(raw, &out[i]); err != nil {
			return nil, fmt.Errorf("enc: result %d: %w", i, err)
		}
	}
	return out, nil
}

// KnobInfo is the wire schema of one configuration knob, as
// GET /v1/predictors reports it: enough for a client to render a form,
// validate input, or generate flags without compiled-in tables.
type KnobInfo struct {
	Name string `json:"name"`
	// Group is the knob table the entry belongs to ("system", "run",
	// "stems", ...).
	Group string `json:"group"`
	// Kind is "int", "bool", or "float".
	Kind string `json:"kind"`
	// Default is the paper-configuration value (the "scaled" system
	// additionally shrinks system.l2_size_bytes before knobs apply).
	Default sim.Value `json:"default"`
	// Min and Max bound numeric knobs inclusively. Always present, so a
	// legitimate lower bound of 0 is not mistaken for "unbounded";
	// meaningless (both zero) when Kind is "bool".
	Min float64 `json:"min"`
	Max float64 `json:"max"`
	Doc string  `json:"doc,omitempty"`
}

// PredictorInfo describes one registered predictor and the knobs
// relevant to it (the shared system/run tables plus its own).
type PredictorInfo struct {
	Name  string     `json:"name"`
	Knobs []KnobInfo `json:"knobs"`
}

// KnobInfos converts registry knobs to wire form.
func KnobInfos(knobs []sim.Knob) []KnobInfo {
	out := make([]KnobInfo, len(knobs))
	for i, k := range knobs {
		out[i] = KnobInfo{
			Name:    k.Name,
			Group:   k.Group,
			Kind:    string(k.Kind),
			Default: k.Default(),
			Doc:     k.Doc,
		}
		if k.Kind != sim.KnobBool {
			out[i].Min, out[i].Max = k.Min, k.Max
		}
	}
	return out
}

// PredictorInfos builds the full /v1/predictors document: every
// registered predictor with its knob schema, in registry order.
func PredictorInfos() []PredictorInfo {
	kinds := sim.AllKinds()
	out := make([]PredictorInfo, len(kinds))
	for i, kind := range kinds {
		out[i] = PredictorInfo{
			Name:  string(kind),
			Knobs: KnobInfos(sim.KnobsFor(kind)),
		}
	}
	return out
}

// RunEvent is the payload of an SSE "result" event: one run's canonical
// (labeled) result document, emitted as soon as that run and every
// earlier run have finished — a sweep job streams results incrementally,
// in run order, instead of only at job completion.
type RunEvent struct {
	// Run is the zero-based index into the job's run list.
	Run int `json:"run"`
	// Result is the raw canonical result document, byte-identical to
	// the corresponding entry of the terminal JobStatus.Results.
	Result json.RawMessage `json:"result"`
}

// WorkloadInfo describes one suite workload in GET /v1/workloads.
type WorkloadInfo struct {
	Name            string `json:"name"`
	Class           string `json:"class"`
	Scientific      bool   `json:"scientific,omitempty"`
	DefaultAccesses int    `json:"default_accesses"`
}

// WorkloadInfos converts the suite specs to wire form.
func WorkloadInfos(specs []workload.Spec) []WorkloadInfo {
	out := make([]WorkloadInfo, len(specs))
	for i, s := range specs {
		out[i] = WorkloadInfo{
			Name:            s.Name,
			Class:           string(s.Class),
			Scientific:      s.Scientific,
			DefaultAccesses: s.DefaultAccesses,
		}
	}
	return out
}

// Metrics is the body of GET /metrics: service-level gauges and counters.
type Metrics struct {
	UptimeSec float64 `json:"uptime_sec"`
	Workers   int     `json:"workers"`

	QueueDepth int `json:"queue_depth"`
	QueueBound int `json:"queue_bound"`

	JobsSubmitted uint64 `json:"jobs_submitted"`
	JobsCompleted uint64 `json:"jobs_completed"`
	JobsFailed    uint64 `json:"jobs_failed"`
	JobsCanceled  uint64 `json:"jobs_canceled"`

	// RunsComputed counts runs actually simulated; cache hits avoid it.
	RunsComputed uint64  `json:"runs_computed"`
	CacheHits    uint64  `json:"cache_hits"`
	CacheMisses  uint64  `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	CacheEntries int     `json:"cache_entries"`
	CacheBound   int     `json:"cache_bound"`

	// AccessesSimulated counts accesses replayed by the engine since
	// start; AccessesPerSec divides it by uptime — the service-side
	// throughput figure the bench pipeline records. That quotient is a
	// lifetime average: on a long-lived daemon an idle hour drags it
	// toward zero no matter what is happening now, so AccessesPerSec1m
	// additionally reports the windowed rate over the trailing 60
	// seconds — the number a dashboard should graph.
	AccessesSimulated uint64  `json:"accesses_simulated"`
	AccessesPerSec    float64 `json:"accesses_per_sec"`
	AccessesPerSec1m  float64 `json:"accesses_per_sec_1m"`

	// Trace-arena activity: workload traces resident, generator
	// invocations, and arena cache hits across jobs.
	TracesResident   int `json:"traces_resident"`
	TraceGenerations int `json:"trace_generations"`
	TraceHits        int `json:"trace_hits"`

	// GridJobs counts jobs submitted as declarative grids (JobSpec.Grid)
	// and expanded server-side.
	GridJobs uint64 `json:"grid_jobs"`

	// Lockstep is always zero: every run executes on its own cursor, so
	// no runs fold into lockstep sets. The section stays for clients that
	// read it.
	Lockstep LockstepMetrics `json:"lockstep"`

	// Sched reports the cron scheduler. stemsd always reports it, with
	// zero schedules when none are configured; it is absent only from a
	// service that has no scheduler attached (an embedded Service).
	Sched *SchedMetrics `json:"sched,omitempty"`

	// Notify reports completion-notifier deliveries. stemsd always
	// reports it, with zero notifiers when none are configured; it is
	// absent only from a service that has no notifier set attached.
	Notify *NotifyMetrics `json:"notify,omitempty"`

	// Store reports the disk tier of the result cache; absent when the
	// daemon runs memory-only (no -store).
	Store *StoreMetrics `json:"store,omitempty"`

	// Cluster reports shard-routing observability; absent when the
	// daemon runs standalone (no -peers).
	Cluster *ClusterMetrics `json:"cluster,omitempty"`
}

// LockstepMetrics is the retired /metrics section for run folding. The
// service no longer folds runs into lockstep sets, so every field reads
// zero; the wire shape is kept so existing readers still decode.
type LockstepMetrics struct {
	SetsFormed  uint64 `json:"sets_formed"`
	RunsFolded  uint64 `json:"runs_folded"`
	TracesSaved uint64 `json:"traces_saved"`
}

// StoreMetrics is the /metrics section for the disk-backed result
// store: residency, verified-read outcomes, and eviction pressure.
type StoreMetrics struct {
	// Dir is the store root on disk.
	Dir string `json:"dir"`
	// Entries and Bytes describe resident payloads; Bound is the LRU
	// entry cap.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	Bound   int   `json:"bound"`
	// Hits counts results served from disk (a restarted daemon's warm
	// answers); Misses counts disk lookups that fell through to a real
	// simulation.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Evictions counts LRU drops; CorruptDropped counts entries deleted
	// because CRC/header verification failed on read.
	Evictions      uint64 `json:"evictions"`
	CorruptDropped uint64 `json:"corrupt_dropped"`
	// ReadLatency and WriteLatency summarize the disk I/O distributions
	// (entry read+verify, entry write+sync+rename), present once at
	// least one operation has been recorded.
	ReadLatency  *LatencyStats `json:"read_latency,omitempty"`
	WriteLatency *LatencyStats `json:"write_latency,omitempty"`
}

// LatencyStats is the wire summary of a latency histogram: count, mean,
// and tail quantiles in microseconds. Quantiles are bucket upper bounds
// of the underlying log-bucketed histogram — accurate to one
// power-of-two bucket, which is the resolution monitoring needs.
type LatencyStats struct {
	Count  uint64  `json:"count"`
	MeanUs float64 `json:"mean_us"`
	P50Us  float64 `json:"p50_us"`
	P90Us  float64 `json:"p90_us"`
	P99Us  float64 `json:"p99_us"`
}

// LatencyFromSnapshot summarizes a histogram snapshot in wire form; nil
// when the histogram has recorded nothing (so empty distributions stay
// out of JSON documents entirely).
func LatencyFromSnapshot(s obs.Snapshot) *LatencyStats {
	if s.Count == 0 {
		return nil
	}
	us := func(d int64) float64 { return float64(d) / 1e3 }
	return &LatencyStats{
		Count:  s.Count,
		MeanUs: us(int64(s.Mean())),
		P50Us:  us(int64(s.Quantile(0.50))),
		P90Us:  us(int64(s.Quantile(0.90))),
		P99Us:  us(int64(s.Quantile(0.99))),
	}
}

// ClusterMetrics is the /metrics section for shard routing: which peers
// this daemon knows, and how the runs it has been asked to execute
// distribute over the shard map's owners.
type ClusterMetrics struct {
	// Peers is the full shard map (every daemon's base URL, this one
	// included); Self names this daemon's own entry when configured.
	Peers []string `json:"peers"`
	Self  string   `json:"self,omitempty"`
	// PeerRuns counts the runs submitted to this daemon bucketed by the
	// peer the shard map says owns them, index-aligned with Peers. On a
	// well-routed cluster a daemon's own bucket dominates; weight
	// elsewhere means clients are bypassing the shard map (or covering
	// for a down owner).
	PeerRuns []uint64 `json:"peer_runs"`
	// MisroutedRuns totals the runs owned by a peer other than Self
	// (zero until Self is configured).
	MisroutedRuns uint64 `json:"misrouted_runs"`
}

// ErrorBody is the structured error envelope every non-2xx response
// carries: {"error":{"code":"...","message":"..."}}.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail is the code/message pair inside ErrorBody.
type ErrorDetail struct {
	// Code is a stable machine-readable slug: "invalid_spec",
	// "not_found", "queue_full", "draining", "internal".
	Code    string `json:"code"`
	Message string `json:"message"`
}
