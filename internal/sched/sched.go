// Package sched is stemsd's cron scheduler: named recurring job
// submissions with persisted fire state. Each schedule pairs a cron
// expression (or "@every" interval) with a job spec; at every fire the
// scheduler submits the spec through the service like any interactive
// client, so scheduled sweeps flow through the same queue, folding, and
// content-addressed cache. Fire state (next fire, fire count) survives
// restarts via an atomically rewritten JSON state file, and shutdown is
// drain-aware — Stop lands an in-progress fire before returning.
package sched

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"stems/internal/enc"
	"stems/internal/obs"
)

// Sentinel errors; the HTTP layer maps them to status codes.
var (
	// ErrInvalid reports a malformed schedule spec (bad name, cron, job,
	// or notifier reference).
	ErrInvalid = errors.New("invalid schedule")
	// ErrExists reports a duplicate schedule name.
	ErrExists = errors.New("schedule exists")
	// ErrNotFound reports an unknown schedule name.
	ErrNotFound = errors.New("schedule not found")
	// ErrStopped reports mutation after Stop.
	ErrStopped = errors.New("scheduler stopped")
)

// maxSleep caps the wait between scheduler wakeups so a live clock
// re-evaluates at least this often even with no schedule due.
const maxSleep = time.Minute

// Config wires a Scheduler to its surroundings. Submit is required;
// everything else has a sensible zero value.
type Config struct {
	// Submit runs one fire: it submits the job spec and returns the new
	// job's ID. Errors are recorded on the schedule and counted, not
	// fatal — the schedule keeps its cadence.
	Submit func(spec enc.JobSpec) (string, error)
	// Validate, when set, vets a schedule's job spec at registration so a
	// bad spec is a 400 at POST time rather than a fire-time surprise.
	Validate func(spec enc.JobSpec) error
	// HasNotifier, when set, vets names in a schedule's notify list at
	// registration.
	HasNotifier func(name string) bool
	// Clock defaults to RealClock; tests inject a FakeClock.
	Clock Clock
	// StatePath, when non-empty, persists fire state as JSON there
	// (atomic tmp+rename). A schedule restored with its next fire in the
	// past fires once immediately (catch-up), then resumes cadence.
	StatePath string
	// Logger receives fire and persistence events (nil discards).
	Logger *slog.Logger
	// Obs receives the scheduler's counters and gauge (default: a fresh
	// private registry).
	Obs *obs.Registry
}

// Scheduler owns the schedule table and the fire loop.
type Scheduler struct {
	cfg   Config
	clock Clock
	log   *slog.Logger

	mu      sync.Mutex
	entries map[string]*entry
	// persisted is the state file's contents: loaded once at New, then
	// kept current as schedules register, fire, and are removed. Persist
	// writes this map, not the live entries — so re-registering schedules
	// one at a time at startup never clobbers the saved state of the ones
	// not yet re-added.
	persisted map[string]persistedEntry
	// jobs maps every outstanding fired job ID to its schedule, so a
	// completion attributes correctly even after the schedule has fired
	// again (or been removed) in the meantime. Pruned on completion.
	jobs    map[string]*entry
	stopped bool
	wake    chan struct{} // buffered(1): nudges the loop after Add/Remove
	done    chan struct{} // closed when the fire loop exits

	fires      *obs.Counter
	fireErrors *obs.Counter

	// parks counts fire-loop sleeps, incremented only after the clock
	// waiter is registered — the ordering fake-clock tests key on.
	parks atomic.Uint64
}

// entry is one registered schedule plus its live state. A zero nextFire
// means disarmed: the expression has no future match (possible only when
// cadence advances past its last real fire — Add rejects specs that
// never fire at all).
type entry struct {
	spec      enc.ScheduleSpec
	cron      Cron
	nextFire  time.Time
	fires     uint64
	lastJob   string
	lastState enc.JobState
	lastErr   string
}

// persistedState is the JSON state-file schema: fire state only — the
// specs themselves are configuration, re-registered at startup.
type persistedState struct {
	Schedules map[string]persistedEntry `json:"schedules"`
}

type persistedEntry struct {
	NextFire time.Time `json:"next_fire"`
	Fires    uint64    `json:"fires"`
}

// New builds a scheduler and starts its fire loop. Stop it before
// process exit to land in-progress fires.
func New(cfg Config) (*Scheduler, error) {
	if cfg.Submit == nil {
		return nil, fmt.Errorf("sched: Config.Submit is required")
	}
	if cfg.Clock == nil {
		cfg.Clock = RealClock{}
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	s := &Scheduler{
		cfg:       cfg,
		clock:     cfg.Clock,
		log:       cfg.Logger,
		entries:   make(map[string]*entry),
		persisted: loadState(cfg.StatePath, cfg.Logger),
		jobs:      make(map[string]*entry),
		wake:      make(chan struct{}, 1),
		done:      make(chan struct{}),
	}
	s.fires = cfg.Obs.Counter("stemsd_schedule_fires_total",
		"Jobs submitted by schedule fires.")
	s.fireErrors = cfg.Obs.Counter("stemsd_schedule_fire_errors_total",
		"Schedule fires whose job submission failed.")
	cfg.Obs.Gauge("stemsd_schedules",
		"Registered cron schedules.", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.entries))
		})
	go s.loop()
	return s, nil
}

// Add registers a schedule and arms its first fire. A restored state
// file (see Config.StatePath) may pull the first fire into the past, in
// which case it fires immediately as catch-up.
func (s *Scheduler) Add(spec enc.ScheduleSpec) (enc.ScheduleStatus, error) {
	if err := s.check(spec); err != nil {
		return enc.ScheduleStatus{}, err
	}
	cron, err := ParseCron(spec.Cron)
	if err != nil {
		return enc.ScheduleStatus{}, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return enc.ScheduleStatus{}, ErrStopped
	}
	if _, dup := s.entries[spec.Name]; dup {
		return enc.ScheduleStatus{}, fmt.Errorf("%w: %q", ErrExists, spec.Name)
	}
	e := &entry{spec: spec, cron: cron, nextFire: cron.Next(s.clock.Now())}
	if e.nextFire.IsZero() {
		return enc.ScheduleStatus{}, fmt.Errorf("%w: %q: cron %q never fires", ErrInvalid, spec.Name, spec.Cron)
	}
	s.entries[spec.Name] = e
	s.restoreLocked(e)
	s.persistLocked()
	s.nudge()
	return e.status(), nil
}

// check vets a spec's static fields against ErrInvalid.
func (s *Scheduler) check(spec enc.ScheduleSpec) error {
	if spec.Name == "" {
		return fmt.Errorf("%w: empty name", ErrInvalid)
	}
	if spec.Job == nil {
		return fmt.Errorf("%w: %q: no job", ErrInvalid, spec.Name)
	}
	if s.cfg.Validate != nil {
		if err := s.cfg.Validate(*spec.Job); err != nil {
			return fmt.Errorf("%w: %q: job: %v", ErrInvalid, spec.Name, err)
		}
	}
	for _, n := range spec.Notify {
		if s.cfg.HasNotifier != nil && !s.cfg.HasNotifier(n) {
			return fmt.Errorf("%w: %q: unknown notifier %q", ErrInvalid, spec.Name, n)
		}
	}
	return nil
}

// Remove deletes a schedule. An in-progress fire of it still completes.
func (s *Scheduler) Remove(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return ErrStopped
	}
	if _, ok := s.entries[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	delete(s.entries, name)
	delete(s.persisted, name)
	s.persistLocked()
	return nil
}

// Get returns one schedule's status.
func (s *Scheduler) Get(name string) (enc.ScheduleStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[name]
	if !ok {
		return enc.ScheduleStatus{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return e.status(), nil
}

// List returns every schedule's status, sorted by name.
func (s *Scheduler) List() []enc.ScheduleStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]enc.ScheduleStatus, 0, len(s.entries))
	for _, e := range s.entries {
		out = append(out, e.status())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// JobCompleted records a terminal job status against the schedule that
// fired it, returning that schedule's name and notify list. Every
// outstanding fire is tracked, so an earlier job completing after the
// schedule has fired again (or been removed) still attributes. ok is
// false for jobs no schedule owns (interactive submissions) — the caller
// still fans out to all-jobs notifiers either way.
func (s *Scheduler) JobCompleted(st enc.JobStatus) (schedule string, notify []string, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.jobs[st.ID]
	if !ok {
		return "", nil, false
	}
	delete(s.jobs, st.ID)
	if e.lastJob == st.ID {
		e.lastState = st.State
	}
	return e.spec.Name, append([]string(nil), e.spec.Notify...), true
}

// Metrics snapshots the scheduler section of the JSON /metrics document.
func (s *Scheduler) Metrics() enc.SchedMetrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	return enc.SchedMetrics{
		Schedules:  len(s.entries),
		Fires:      s.fires.Value(),
		FireErrors: s.fireErrors.Value(),
	}
}

// Stop ends the fire loop, waiting for an in-progress fire to land, and
// persists final state. Further mutations return ErrStopped.
func (s *Scheduler) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		<-s.done
		return
	}
	s.stopped = true
	s.persistLocked()
	s.mu.Unlock()
	s.nudge()
	<-s.done
}

// nudge wakes the fire loop; the buffer makes it lossless-but-cheap.
func (s *Scheduler) nudge() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// loop is the fire loop: sleep until the earliest next fire (capped at
// maxSleep), fire everything due, repeat. Add/Remove/Stop nudge it awake
// early.
func (s *Scheduler) loop() {
	defer close(s.done)
	for {
		s.mu.Lock()
		if s.stopped {
			s.mu.Unlock()
			return
		}
		now := s.clock.Now()
		s.fireDueLocked(now)
		sleep := maxSleep
		for _, e := range s.entries {
			if e.nextFire.IsZero() {
				continue // disarmed: no future match
			}
			if d := e.nextFire.Sub(now); d < sleep {
				sleep = d
			}
		}
		s.mu.Unlock()
		ch := s.clock.Until(now.Add(sleep))
		s.parks.Add(1)
		select {
		case <-ch:
		case <-s.wake:
		}
	}
}

// fireDueLocked submits every schedule whose next fire has arrived and
// advances its cadence. Holding mu across Submit is deliberate: the
// completion hook's JobCompleted blocks until the job is recorded in
// s.jobs, so even a job that finishes instantly attributes to its
// schedule.
func (s *Scheduler) fireDueLocked(now time.Time) {
	for _, e := range s.entries {
		if e.nextFire.IsZero() || e.nextFire.After(now) {
			continue
		}
		id, err := s.cfg.Submit(*e.spec.Job)
		if err != nil {
			e.lastErr = err.Error()
			s.fireErrors.Inc()
			s.log.Warn("schedule fire failed", "schedule", e.spec.Name, "err", err)
		} else {
			e.lastJob = id
			e.lastState = ""
			e.lastErr = ""
			e.fires++
			s.jobs[id] = e
			s.fires.Inc()
			s.log.Info("schedule fired", "schedule", e.spec.Name, "job", id)
		}
		e.nextFire = e.cron.Next(now)
		if e.nextFire.IsZero() {
			s.log.Warn("schedule has no future fire; disarmed", "schedule", e.spec.Name, "cron", e.spec.Cron)
		}
	}
	s.persistLocked()
}

// loadState reads the state file once at startup. Errors only log — a
// missing or corrupt state file must not block the scheduler.
func loadState(path string, log *slog.Logger) map[string]persistedEntry {
	out := make(map[string]persistedEntry)
	if path == "" {
		return out
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return out // first run, or unreadable: start fresh
	}
	var st persistedState
	if err := json.Unmarshal(data, &st); err != nil {
		log.Warn("schedule state file unreadable", "path", path, "err", err)
		return out
	}
	for name, p := range st.Schedules {
		out[name] = p
	}
	return out
}

// restoreLocked overlays persisted fire state onto a just-added entry.
func (s *Scheduler) restoreLocked(e *entry) {
	p, ok := s.persisted[e.spec.Name]
	if !ok {
		return
	}
	e.fires = p.Fires
	if !p.NextFire.IsZero() && p.NextFire.Before(e.nextFire) {
		// Possibly in the past — fireDueLocked then catches up with one
		// immediate fire before resuming cadence.
		e.nextFire = p.NextFire
	}
}

// persistLocked folds live fire state into the persisted map and rewrites
// the state file atomically (tmp + rename). Writing the merged map, not
// just the live entries, keeps loaded state for schedules not (yet)
// registered this run — startup re-registers them one Add at a time. A
// nil StatePath disables persistence.
func (s *Scheduler) persistLocked() {
	if s.cfg.StatePath == "" {
		return
	}
	for name, e := range s.entries {
		s.persisted[name] = persistedEntry{NextFire: e.nextFire, Fires: e.fires}
	}
	st := persistedState{Schedules: s.persisted}
	data, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		s.log.Warn("schedule state encode failed", "err", err)
		return
	}
	tmp := s.cfg.StatePath + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err == nil {
		err = os.Rename(tmp, s.cfg.StatePath)
	}
	if err != nil {
		s.log.Warn("schedule state write failed", "path", s.cfg.StatePath, "err", err)
	}
}

// StateDir returns the directory a state path lives in, creating it —
// a convenience for cmd/stemsd's default "<store>/schedules.json".
func StateDir(path string) error {
	return os.MkdirAll(filepath.Dir(path), 0o755)
}

func (e *entry) status() enc.ScheduleStatus {
	return enc.ScheduleStatus{
		ScheduleSpec: e.spec,
		NextFire:     e.nextFire,
		Fires:        e.fires,
		LastJob:      e.lastJob,
		LastState:    e.lastState,
		LastError:    e.lastErr,
	}
}
