// Package server is the HTTP surface of stemsd: a JSON API over
// internal/service. Endpoints:
//
//	POST   /v1/jobs             submit a run or sweep (202 + job status)
//	GET    /v1/jobs             list jobs
//	GET    /v1/jobs/{id}        job status and results
//	DELETE /v1/jobs/{id}        cancel a job
//	GET    /v1/jobs/{id}/events stream status/progress/per-run results via SSE
//	POST   /v1/schedules        register a recurring submission (201 + status)
//	GET    /v1/schedules        list schedules with fire state
//	GET    /v1/schedules/{name} one schedule's status
//	DELETE /v1/schedules/{name} unregister a schedule (204)
//	GET    /v1/predictors       registered predictors with full knob schemas
//	GET    /v1/workloads        the paper's workload suite
//	GET    /healthz             liveness
//	GET    /metrics             queue/cache/throughput counters (JSON);
//	                            ?format=prometheus for text exposition
//	GET    /debug/pprof/*       runtime profiles (only with WithPprof)
//
// Every non-2xx response carries the structured enc.ErrorBody envelope.
//
// Every route records a request counter and latency histogram
// (stemsd_http_requests_total / stemsd_http_request_seconds, labeled by
// route pattern) into the service's obs registry, so the Prometheus
// exposition covers the HTTP layer alongside the simulation core.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"time"

	"stems/internal/enc"
	"stems/internal/obs"
	"stems/internal/sched"
	"stems/internal/service"
)

// Server routes HTTP requests to a service.Service.
type Server struct {
	svc   *service.Service
	sched *sched.Scheduler
	mux   *http.ServeMux
	log   *slog.Logger
	pprof bool
}

// Option configures a Server at construction.
type Option func(*Server)

// WithPprof mounts net/http/pprof under /debug/pprof/. Off by default:
// profiles expose memory contents, so the daemon owner opts in (stemsd's
// -pprof flag).
func WithPprof() Option { return func(s *Server) { s.pprof = true } }

// WithLogger directs per-request debug logs to l (default: discard).
func WithLogger(l *slog.Logger) Option {
	return func(s *Server) {
		if l != nil {
			s.log = l
		}
	}
}

// WithScheduler mounts the /v1/schedules CRUD routes over sc. Without
// it, the daemon runs schedule-free and the routes 404.
func WithScheduler(sc *sched.Scheduler) Option {
	return func(s *Server) { s.sched = sc }
}

// New builds a Server over svc. Construct at most one Server per
// service: route metric series register in svc's obs registry, which
// rejects duplicates.
func New(svc *service.Service, opts ...Option) *Server {
	s := &Server{svc: svc, mux: http.NewServeMux(), log: slog.New(slog.DiscardHandler)}
	for _, o := range opts {
		o(s)
	}
	s.handle("POST /v1/jobs", s.submitJob)
	s.handle("GET /v1/jobs", s.listJobs)
	s.handle("GET /v1/jobs/{id}", s.getJob)
	s.handle("DELETE /v1/jobs/{id}", s.cancelJob)
	s.handle("GET /v1/jobs/{id}/events", s.jobEvents)
	if s.sched != nil {
		s.handle("POST /v1/schedules", s.createSchedule)
		s.handle("GET /v1/schedules", s.listSchedules)
		s.handle("GET /v1/schedules/{name}", s.getSchedule)
		s.handle("DELETE /v1/schedules/{name}", s.deleteSchedule)
	}
	s.handle("GET /v1/predictors", s.predictors)
	s.handle("GET /v1/workloads", s.workloads)
	s.handle("GET /healthz", s.healthz)
	s.handle("GET /metrics", s.metrics)
	if s.pprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

// handle registers a route together with its request counter and latency
// histogram. Series are created here, once, keyed by the route pattern —
// not the raw URL — so label cardinality is fixed and the per-request
// record path allocates nothing.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	reg := s.svc.Obs()
	reqs := reg.Counter("stemsd_http_requests_total",
		"HTTP requests served, by route pattern.", obs.L("route", pattern))
	lat := reg.Histogram("stemsd_http_request_seconds",
		"HTTP request latency by route pattern.", obs.L("route", pattern))
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ww, sw := wrapWriter(w)
		h(ww, r)
		d := time.Since(start)
		reqs.Inc()
		lat.Observe(d)
		s.log.Debug("http request", "route", pattern, "path", r.URL.Path,
			"status", sw.code(), "dur", d)
	})
}

// statusWriter captures the response status code for request logging.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) code() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// flusherWriter additionally forwards http.Flusher: the SSE handler
// type-asserts the writer for it, so the logging wrapper must not mask
// the capability.
type flusherWriter struct {
	*statusWriter
	fl http.Flusher
}

func (w *flusherWriter) Flush() { w.fl.Flush() }

func wrapWriter(w http.ResponseWriter) (http.ResponseWriter, *statusWriter) {
	sw := &statusWriter{ResponseWriter: w}
	if fl, ok := w.(http.Flusher); ok {
		return &flusherWriter{statusWriter: sw, fl: fl}, sw
	}
	return sw, sw
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// writeJSON emits a JSON body. Deliberately compact (no indentation): an
// indenting encoder would reformat the raw cached result documents inside
// JobStatus, and the API's contract is that a cached result crosses the
// wire byte-identical to its first computation.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // a failed write means the client left
}

// writeError maps a service error to its status code and structured body.
func writeError(w http.ResponseWriter, err error) {
	status, code := http.StatusInternalServerError, "internal"
	switch {
	case errors.Is(err, service.ErrInvalidSpec):
		status, code = http.StatusBadRequest, "invalid_spec"
	case errors.Is(err, service.ErrNotFound):
		status, code = http.StatusNotFound, "not_found"
	case errors.Is(err, service.ErrQueueFull):
		status, code = http.StatusServiceUnavailable, "queue_full"
		w.Header().Set("Retry-After", "1")
	case errors.Is(err, service.ErrDraining):
		status, code = http.StatusServiceUnavailable, "draining"
	case errors.Is(err, sched.ErrInvalid):
		status, code = http.StatusBadRequest, "invalid_schedule"
	case errors.Is(err, sched.ErrExists):
		status, code = http.StatusConflict, "exists"
	case errors.Is(err, sched.ErrNotFound):
		status, code = http.StatusNotFound, "not_found"
	case errors.Is(err, sched.ErrStopped):
		status, code = http.StatusServiceUnavailable, "draining"
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(enc.ErrorBody{ //nolint:errcheck
		Error: enc.ErrorDetail{Code: code, Message: err.Error()},
	})
}

func (s *Server) submitJob(w http.ResponseWriter, r *http.Request) {
	var spec enc.JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, fmt.Errorf("%w: decoding body: %v", service.ErrInvalidSpec, err))
		return
	}
	j, err := s.svc.Submit(spec)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	writeJSON(w, http.StatusAccepted, j.Status())
}

func (s *Server) listJobs(w http.ResponseWriter, r *http.Request) {
	jobs := s.svc.Jobs()
	out := make([]enc.JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	writeJSON(w, http.StatusOK, struct {
		Jobs []enc.JobStatus `json:"jobs"`
	}{out})
}

func (s *Server) getJob(w http.ResponseWriter, r *http.Request) {
	j, err := s.svc.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) cancelJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.svc.Cancel(id); err != nil {
		writeError(w, err)
		return
	}
	j, err := s.svc.Job(id)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

// jobEvents streams the job over Server-Sent Events: one "status" event
// immediately, one per observable change (state moves, per-block replay
// progress, run completions), and a final one at the terminal state,
// after which the stream closes. Each run of a sweep job additionally
// emits one "result" event (enc.RunEvent: run index + the canonical
// labeled result document) once it and every earlier run have finished,
// before the status event that reflects it — clients consume sweep
// results incrementally, in run order, instead of waiting for job
// completion. A reconnecting client simply
// gets the current status again — status events carry full snapshots,
// not deltas, so there is no resume cursor to track (result events for
// already-finished runs are re-emitted from index 0 on reconnect).
func (s *Server) jobEvents(w http.ResponseWriter, r *http.Request) {
	j, err := s.svc.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, errors.New("streaming unsupported by this connection"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	updates, cancel := j.Subscribe()
	defer cancel()

	resultsSent := 0
	send := func() (terminal bool) {
		st := j.Status()
		for ; resultsSent < len(st.Results); resultsSent++ {
			ev, err := json.Marshal(enc.RunEvent{Run: resultsSent, Result: st.Results[resultsSent]})
			if err != nil {
				return true
			}
			fmt.Fprintf(w, "event: result\ndata: %s\n\n", ev)
		}
		data, err := json.Marshal(st)
		if err != nil {
			return true
		}
		fmt.Fprintf(w, "event: status\ndata: %s\n\n", data)
		flusher.Flush()
		return st.State.Terminal()
	}
	if send() {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-j.Done():
			send()
			return
		case <-updates:
			if send() {
				return
			}
		}
	}
}

func (s *Server) createSchedule(w http.ResponseWriter, r *http.Request) {
	var spec enc.ScheduleSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, fmt.Errorf("%w: decoding body: %v", sched.ErrInvalid, err))
		return
	}
	st, err := s.sched.Add(spec)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Location", "/v1/schedules/"+st.Name)
	writeJSON(w, http.StatusCreated, st)
}

func (s *Server) listSchedules(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Schedules []enc.ScheduleStatus `json:"schedules"`
	}{s.sched.List()})
}

func (s *Server) getSchedule(w http.ResponseWriter, r *http.Request) {
	st, err := s.sched.Get(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) deleteSchedule(w http.ResponseWriter, r *http.Request) {
	if err := s.sched.Remove(r.PathValue("name")); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) predictors(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Predictors []enc.PredictorInfo `json:"predictors"`
	}{s.svc.PredictorInfos()})
}

func (s *Server) workloads(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Workloads []enc.WorkloadInfo `json:"workloads"`
	}{s.svc.Workloads()})
}

func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status    string  `json:"status"`
		UptimeSec float64 `json:"uptime_sec"`
	}{"ok", s.svc.Metrics().UptimeSec})
}

func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", obs.PrometheusContentType)
		s.svc.Obs().WritePrometheus(w) //nolint:errcheck // a failed write means the scraper left
		return
	}
	writeJSON(w, http.StatusOK, s.svc.Metrics())
}
