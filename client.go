package stems

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"stems/internal/enc"
)

// Transport tuning for the default client (and the cluster client's
// per-peer connection pools). A daemon is a single host receiving many
// small JSON requests plus a few long-lived SSE streams, so the pool
// keeps connections warm per host and bounds the active count against
// ephemeral-port exhaustion under sweep fan-out.
const (
	transportMaxIdlePerHost = 16
	transportMaxPerHost     = 64
	transportDialTimeout    = 5 * time.Second
	transportIdleTimeout    = 90 * time.Second
	// transportHeaderTimeout bounds the wait for response headers. This
	// is what keeps a hung daemon from wedging Wait: an SSE request that
	// never answers fails here instead of blocking forever (the body,
	// once streaming, is unlimited — job lifetimes bound it via context).
	transportHeaderTimeout = 30 * time.Second
	// requestTimeout bounds whole non-streaming requests (submit, poll,
	// metrics) when the caller's context carries no deadline of its own.
	requestTimeout = 30 * time.Second
)

// newTransport builds the tuned *http.Transport shared by NewClient's
// default client and NewClusterClient.
func newTransport() *http.Transport {
	return &http.Transport{
		MaxIdleConns:          4 * transportMaxIdlePerHost,
		MaxIdleConnsPerHost:   transportMaxIdlePerHost,
		MaxConnsPerHost:       transportMaxPerHost,
		IdleConnTimeout:       transportIdleTimeout,
		ResponseHeaderTimeout: transportHeaderTimeout,
		DialContext: (&net.Dialer{
			Timeout:   transportDialTimeout,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		TLSHandshakeTimeout: transportDialTimeout,
	}
}

// defaultHTTPClient is shared by every NewClient(url, nil) so their
// connection pools are one pool. No Client.Timeout: Wait and Watch hold
// SSE streams open for a job's lifetime; non-streaming requests are
// bounded per-request in do, and stream establishment by the transport's
// header timeout.
var defaultHTTPClient = &http.Client{Transport: newTransport()}

// Wire types of the stemsd service API, re-exported so remote sweeps are
// driven entirely through the public package. A RunSpec names a
// configuration the way the CLI flags do; results come back as RunResult,
// the same canonical encoding cmd/sweep -json emits.
type (
	// RunSpec describes one simulation run to submit (zero fields select
	// the service defaults: predictor "stems", workload "DB2", seed 1,
	// workload-default length, scaled system).
	RunSpec = enc.RunSpec
	// JobSpec is a submission: a single run, a sweep (Runs), or a
	// server-side sweep grid (Grid).
	JobSpec = enc.JobSpec
	// GridSpec is a declarative sweep grid — a base run crossed with named
	// knob axes — expanded server-side into one job (SubmitGrid).
	GridSpec = enc.GridSpec
	// GridAxis is one swept dimension of a GridSpec: a knob name and its
	// values.
	GridAxis = enc.GridAxis
	// ScheduleSpec is a recurring submission: a name, a cron expression
	// (five fields or "@every DURATION"), the job each fire submits, and
	// the notifiers told when it finishes.
	ScheduleSpec = enc.ScheduleSpec
	// ScheduleStatus is a registered schedule plus its live fire state.
	ScheduleStatus = enc.ScheduleStatus
	// Notification is the completion document notifiers deliver when a
	// job reaches a terminal state.
	Notification = enc.Notification
	// JobStatus is a job snapshot: state, progress, and results.
	JobStatus = enc.JobStatus
	// JobState is the job lifecycle position; see the Job* constants.
	JobState = enc.JobState
	// JobProgress is the replay position across a job's runs.
	JobProgress = enc.JobProgress
	// RunResult is the canonical wire encoding of one Result.
	RunResult = enc.Result
	// WorkloadInfo describes one suite workload as /v1/workloads lists it.
	WorkloadInfo = enc.WorkloadInfo
	// PredictorInfo describes one predictor as /v1/predictors lists it:
	// its name and full knob schema.
	PredictorInfo = enc.PredictorInfo
	// KnobInfo is the wire schema of one knob (name, kind, default,
	// bounds, doc).
	KnobInfo = enc.KnobInfo
	// RunEvent is one per-run SSE "result" event: the run index and its
	// canonical result document, streamed as each run of a job finishes.
	RunEvent = enc.RunEvent
	// ServiceMetrics is the /metrics document: queue depth, cache hit
	// rate, jobs completed, accesses/sec.
	ServiceMetrics = enc.Metrics
	// StoreMetrics is the disk-tier section of ServiceMetrics (present
	// when the daemon runs with -store): entry/byte counts, hit/miss/
	// eviction counters, and corrupt entries dropped.
	StoreMetrics = enc.StoreMetrics
	// ClusterMetrics is the shard-routing section of ServiceMetrics
	// (present when the daemon runs with -peers): the shard map, runs
	// bucketed by owning peer, and misrouted arrivals.
	ClusterMetrics = enc.ClusterMetrics
	// SchedMetrics is the cron-scheduler section of ServiceMetrics
	// (present when the daemon runs with schedules configured).
	SchedMetrics = enc.SchedMetrics
	// NotifyMetrics is the completion-notifier section of ServiceMetrics
	// (present when the daemon runs with notifiers configured).
	NotifyMetrics = enc.NotifyMetrics
	// PhaseSpan is one entry of JobStatus.Phases: cumulative time and
	// span count a job spent in one execution phase (queue wait, trace
	// resolve, simulate, encode, cache/store write).
	PhaseSpan = enc.PhaseSpan
	// LatencyStats summarizes a latency histogram (count, mean,
	// p50/p90/p99 in microseconds) as /metrics reports it for the disk
	// store's read and write paths.
	LatencyStats = enc.LatencyStats
)

// Job lifecycle states reported by JobStatus.State.
const (
	JobQueued   = enc.JobQueued
	JobRunning  = enc.JobRunning
	JobDone     = enc.JobDone
	JobFailed   = enc.JobFailed
	JobCanceled = enc.JobCanceled
)

// EncodeResult converts an engine Result to its canonical wire form — the
// single encoding shared by the stemsd API, this client, and
// cmd/sweep -json.
func EncodeResult(label string, r Result) RunResult { return enc.FromResult(label, r) }

// APIError is a non-2xx response from the service, carrying its
// structured code ("invalid_spec", "not_found", "queue_full", ...).
type APIError struct {
	StatusCode int
	Code       string
	Message    string
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("stemsd: %s (%s, HTTP %d)", e.Message, e.Code, e.StatusCode)
}

// Client drives a stemsd daemon: submit runs or sweeps, watch streamed
// progress, collect results. The zero value is not usable; construct with
// NewClient.
//
//	c := stems.NewClient("http://localhost:8091")
//	st, err := c.Submit(ctx, stems.JobSpec{RunSpec: stems.RunSpec{
//		Predictor: "stems", Workload: "em3d",
//	}})
//	st, err = c.Wait(ctx, st.ID)
//	results, err := st.DecodedResults()
type Client struct {
	baseURL string
	http    *http.Client
	log     *slog.Logger

	// Degradation accounting: transient stream errors Wait/Watch
	// swallowed by design (the poll fallback preserves the result
	// contract) are still counted and logged, so a fleet quietly running
	// on the fallback path is visible. See Stats.
	streamErrors  atomic.Uint64
	pollFallbacks atomic.Uint64
}

// ClientStats counts a Client's degraded-path activity.
type ClientStats struct {
	// StreamErrors counts SSE watch attempts that failed transiently
	// (transport errors, truncated streams) before falling back.
	StreamErrors uint64
	// PollFallbacks counts Wait/Watch calls that completed via the
	// polling fallback instead of the event stream.
	PollFallbacks uint64
}

// Stats snapshots the client's degradation counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		StreamErrors:  c.streamErrors.Load(),
		PollFallbacks: c.pollFallbacks.Load(),
	}
}

// SetLogger directs the client's diagnostics — notably stream-to-poll
// fallbacks, which are otherwise silent by design — to l. nil restores
// the default (discard).
func (c *Client) SetLogger(l *slog.Logger) {
	if l == nil {
		l = slog.New(slog.DiscardHandler)
	}
	c.log = l
}

// NewClient targets a stemsd base URL (e.g. "http://localhost:8091").
// httpClient nil selects the package's shared tuned client: pooled
// keep-alive connections per host, dial/TLS/response-header timeouts,
// and a per-request timeout on non-streaming calls whose context has no
// deadline — a hung daemon errors out instead of wedging the caller.
// Wait and Watch hold streaming connections open for the job's
// lifetime, so no overall client timeout is set; bound them with the
// context.
func NewClient(baseURL string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = defaultHTTPClient
	}
	return &Client{
		baseURL: strings.TrimRight(baseURL, "/"),
		http:    httpClient,
		log:     slog.New(slog.DiscardHandler),
	}
}

// BaseURL returns the service base URL this client targets.
func (c *Client) BaseURL() string { return c.baseURL }

// do issues a request and decodes a 2xx JSON body into out (unless nil).
// A context without a deadline gets the default per-request timeout —
// every do call is a bounded request/response exchange (streaming goes
// through watchEvents), so none should be able to hang forever on an
// unresponsive daemon.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, requestTimeout)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("stemsd client: encoding request: %w", err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.baseURL+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return decodeAPIError(resp)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("stemsd client: decoding %s %s: %w", method, path, err)
	}
	return nil
}

func decodeAPIError(resp *http.Response) error {
	apiErr := &APIError{StatusCode: resp.StatusCode, Code: "unknown"}
	var body enc.ErrorBody
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&body); err == nil && body.Error.Message != "" {
		apiErr.Code, apiErr.Message = body.Error.Code, body.Error.Message
	} else {
		apiErr.Message = resp.Status
	}
	return apiErr
}

// Submit posts a job and returns its initial (queued) status.
func (c *Client) Submit(ctx context.Context, spec JobSpec) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/jobs", spec, &st)
	return st, err
}

// SubmitGrid posts a server-side sweep grid as one job: the service
// expands the cartesian product, labels each cell with its axis values,
// and dedupes duplicate cells through the content-addressed result
// cache. Equivalent to Submit with JobSpec{Grid: &grid}.
func (c *Client) SubmitGrid(ctx context.Context, grid GridSpec) (JobStatus, error) {
	return c.Submit(ctx, JobSpec{Grid: &grid})
}

// CreateSchedule registers a recurring submission on the daemon and
// returns its initial status (next fire armed).
func (c *Client) CreateSchedule(ctx context.Context, spec ScheduleSpec) (ScheduleStatus, error) {
	var st ScheduleStatus
	err := c.do(ctx, http.MethodPost, "/v1/schedules", spec, &st)
	return st, err
}

// Schedules lists the daemon's registered schedules with fire state.
func (c *Client) Schedules(ctx context.Context) ([]ScheduleStatus, error) {
	var body struct {
		Schedules []ScheduleStatus `json:"schedules"`
	}
	err := c.do(ctx, http.MethodGet, "/v1/schedules", nil, &body)
	return body.Schedules, err
}

// Schedule fetches one schedule's status by name.
func (c *Client) Schedule(ctx context.Context, name string) (ScheduleStatus, error) {
	var st ScheduleStatus
	err := c.do(ctx, http.MethodGet, "/v1/schedules/"+name, nil, &st)
	return st, err
}

// DeleteSchedule unregisters a schedule. Jobs already fired keep
// running.
func (c *Client) DeleteSchedule(ctx context.Context, name string) error {
	return c.do(ctx, http.MethodDelete, "/v1/schedules/"+name, nil, nil)
}

// Job fetches the current status of a job.
func (c *Client) Job(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Cancel requests cancellation and returns the resulting status. A queued
// job cancels immediately; a running one within one replay block.
func (c *Client) Cancel(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Wait blocks until the job reaches a terminal state and returns its
// final status (including results for JobDone). It streams the server's
// SSE events, falling back to polling if streaming is unavailable; cancel
// ctx to give up waiting (the job itself keeps running — use Cancel).
func (c *Client) Wait(ctx context.Context, id string) (JobStatus, error) {
	return c.WatchRuns(ctx, id, nil, nil)
}

// Watch is Wait with a progress callback: fn (if non-nil) observes every
// streamed status snapshot, including the terminal one, from this
// goroutine.
func (c *Client) Watch(ctx context.Context, id string, fn func(JobStatus)) (JobStatus, error) {
	return c.WatchRuns(ctx, id, fn, nil)
}

// WatchRuns is Watch with per-run result streaming: onResult (if
// non-nil) receives each run's decoded result exactly once, in run
// order, as soon as the service reports it — for a sweep job that is as
// each run finishes, not at job completion, except that a run finishing
// before an earlier one is delivered when the earlier one finishes. It
// is fed by the server's
// SSE "result" events, and by diffing status snapshots when the client
// falls back to polling (partial results are visible in GET
// /v1/jobs/{id} while the job runs), so the exactly-once, in-order
// contract holds across a mid-job fallback.
func (c *Client) WatchRuns(ctx context.Context, id string, fn func(JobStatus), onResult func(run int, res RunResult)) (JobStatus, error) {
	// runsSeen spans the SSE attempt and the poll fallback, so a result
	// surfaced before a stream breakdown is not redelivered after it.
	runsSeen := 0
	st, err := c.watchEvents(ctx, id, fn, onResult, &runsSeen)
	if err == nil || ctx.Err() != nil {
		return st, err
	}
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return st, err // the server answered; a structured refusal is final
	}
	// Swallowing the stream error is deliberate — polling preserves the
	// delivery contract — but never silent: it is logged and counted so a
	// client quietly living on the fallback path shows up in diagnostics.
	c.streamErrors.Add(1)
	c.pollFallbacks.Add(1)
	c.log.Warn("event stream failed, falling back to polling",
		"job", id, "runs_seen", runsSeen, "err", err)
	return c.poll(ctx, id, fn, onResult, &runsSeen)
}

// deliverResults feeds onResult the unseen prefix of a status snapshot's
// results — the poll-side equivalent of consuming "result" events.
func deliverResults(st JobStatus, onResult func(int, RunResult), runsSeen *int) error {
	if onResult == nil {
		*runsSeen = len(st.Results)
		return nil
	}
	for ; *runsSeen < len(st.Results); *runsSeen++ {
		var res RunResult
		if err := json.Unmarshal(st.Results[*runsSeen], &res); err != nil {
			return fmt.Errorf("stemsd client: decoding result %d: %w", *runsSeen, err)
		}
		onResult(*runsSeen, res)
	}
	return nil
}

// watchEvents consumes the SSE stream until a terminal status arrives.
func (c *Client) watchEvents(ctx context.Context, id string, fn func(JobStatus), onResult func(int, RunResult), runsSeen *int) (JobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.baseURL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return JobStatus{}, err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.http.Do(req)
	if err != nil {
		return JobStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return JobStatus{}, decodeAPIError(resp)
	}

	var last JobStatus
	sawAny := false
	scan := bufio.NewScanner(resp.Body)
	scan.Buffer(make([]byte, 1<<20), 1<<20)
	var data []byte
	event := "status" // the default SSE event type, and ours
	for scan.Scan() {
		line := scan.Text()
		switch {
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			data = append(data, strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " ")...)
		case line == "" && len(data) > 0:
			switch event {
			case "result":
				var ev RunEvent
				if err := json.Unmarshal(data, &ev); err != nil {
					return last, fmt.Errorf("stemsd client: decoding result event: %w", err)
				}
				// A reconnect replays result events from run 0; runsSeen
				// keeps delivery exactly-once.
				if onResult != nil && ev.Run == *runsSeen {
					var res RunResult
					if err := json.Unmarshal(ev.Result, &res); err != nil {
						return last, fmt.Errorf("stemsd client: decoding result event: %w", err)
					}
					onResult(ev.Run, res)
				}
				if ev.Run >= *runsSeen {
					*runsSeen = ev.Run + 1
				}
			default: // "status"
				var st JobStatus
				if err := json.Unmarshal(data, &st); err != nil {
					return last, fmt.Errorf("stemsd client: decoding event: %w", err)
				}
				last, sawAny = st, true
				if fn != nil {
					fn(st)
				}
				if st.State.Terminal() {
					return st, nil
				}
			}
			data = data[:0]
			event = "status"
		}
	}
	if err := scan.Err(); err != nil {
		return last, err
	}
	if !sawAny {
		return last, fmt.Errorf("stemsd client: event stream for %s closed without a status", id)
	}
	return last, fmt.Errorf("stemsd client: event stream for %s ended before a terminal state", id)
}

// poll is the non-streaming fallback for Wait: GET /v1/jobs/{id} returns
// partial results while the job runs, so per-run delivery continues.
func (c *Client) poll(ctx context.Context, id string, fn func(JobStatus), onResult func(int, RunResult), runsSeen *int) (JobStatus, error) {
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		st, err := c.Job(ctx, id)
		if err != nil {
			return st, err
		}
		// Results before the status callback, preserving the SSE-path
		// ordering contract: when fn observes a terminal snapshot, every
		// run's result has already been delivered.
		if err := deliverResults(st, onResult, runsSeen); err != nil {
			return st, err
		}
		if fn != nil {
			fn(st)
		}
		if st.State.Terminal() {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-tick.C:
		}
	}
}

// Predictors lists the predictor names registered on the service.
func (c *Client) Predictors(ctx context.Context) ([]string, error) {
	infos, err := c.PredictorSchemas(ctx)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(infos))
	for i, p := range infos {
		names[i] = p.Name
	}
	return names, nil
}

// PredictorSchemas fetches the full /v1/predictors document: every
// registered predictor with its knob schema (names, kinds, defaults,
// bounds, docs) — enough to drive flags, forms, or sweep grids without
// compiled-in tables.
func (c *Client) PredictorSchemas(ctx context.Context) ([]PredictorInfo, error) {
	var body struct {
		Predictors []PredictorInfo `json:"predictors"`
	}
	err := c.do(ctx, http.MethodGet, "/v1/predictors", nil, &body)
	return body.Predictors, err
}

// ServiceWorkloads lists the service's workload suite.
func (c *Client) ServiceWorkloads(ctx context.Context) ([]WorkloadInfo, error) {
	var body struct {
		Workloads []WorkloadInfo `json:"workloads"`
	}
	err := c.do(ctx, http.MethodGet, "/v1/workloads", nil, &body)
	return body.Workloads, err
}

// Metrics fetches the service counters.
func (c *Client) Metrics(ctx context.Context) (ServiceMetrics, error) {
	var m ServiceMetrics
	err := c.do(ctx, http.MethodGet, "/metrics", nil, &m)
	return m, err
}
