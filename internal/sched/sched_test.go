package sched

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"stems/internal/enc"
	"stems/internal/obs"
)

// fakeSubmitter records submitted specs and mints job IDs.
type fakeSubmitter struct {
	mu    sync.Mutex
	specs []enc.JobSpec
	next  int
	fail  error
	fired chan string // receives each minted job ID
}

func newFakeSubmitter() *fakeSubmitter {
	return &fakeSubmitter{fired: make(chan string, 64)}
}

func (f *fakeSubmitter) submit(spec enc.JobSpec) (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail != nil {
		return "", f.fail
	}
	f.next++
	id := fmt.Sprintf("j-%06d", f.next)
	f.specs = append(f.specs, spec)
	f.fired <- id
	return id, nil
}

func (f *fakeSubmitter) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.specs)
}

func testSpec(name, cron string) enc.ScheduleSpec {
	return enc.ScheduleSpec{
		Name: name,
		Cron: cron,
		Job:  &enc.JobSpec{RunSpec: enc.RunSpec{Predictor: "stems", Workload: "em3d"}},
	}
}

// harness drives a scheduler on a fake clock: advance() waits for the
// fire loop to park on a fresh waiter before moving time, so a wakeup
// can never slip between the clock moving and the loop re-arming.
type harness struct {
	s     *Scheduler
	clk   *FakeClock
	parks uint64
}

func newHarness(t *testing.T, clk *FakeClock, cfg Config) *harness {
	t.Helper()
	cfg.Clock = clk
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return &harness{s: s, clk: clk}
}

func (h *harness) advance(t *testing.T, d time.Duration) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for h.s.parks.Load() <= h.parks {
		if time.Now().After(deadline) {
			t.Fatal("scheduler loop never went to sleep")
		}
		time.Sleep(time.Millisecond)
	}
	h.parks = h.s.parks.Load()
	h.clk.Advance(d)
}

func waitFire(t *testing.T, f *fakeSubmitter) string {
	t.Helper()
	select {
	case id := <-f.fired:
		return id
	case <-time.After(5 * time.Second):
		t.Fatal("no fire within 5s")
		return ""
	}
}

func TestScheduleFiresUnderFakeClock(t *testing.T) {
	clk := NewFakeClock(at("2026-08-08 10:00"))
	sub := newFakeSubmitter()
	h := newHarness(t, clk, Config{Submit: sub.submit})
	s := h.s

	st, err := s.Add(testSpec("hourly", "0 * * * *"))
	if err != nil {
		t.Fatal(err)
	}
	if !st.NextFire.Equal(at("2026-08-08 11:00")) {
		t.Fatalf("NextFire = %s, want 11:00", st.NextFire)
	}

	h.advance(t, time.Hour)
	id := waitFire(t, sub)
	if id != "j-000001" {
		t.Fatalf("fired job = %q", id)
	}
	h.advance(t, time.Hour)
	waitFire(t, sub)

	got, err := s.Get("hourly")
	if err != nil {
		t.Fatal(err)
	}
	if got.Fires != 2 || got.LastJob != "j-000002" {
		t.Errorf("status = %+v, want 2 fires ending at j-000002", got)
	}
	if !got.NextFire.Equal(at("2026-08-08 13:00")) {
		t.Errorf("NextFire = %s, want 13:00", got.NextFire)
	}
	if m := s.Metrics(); m.Schedules != 1 || m.Fires != 2 || m.FireErrors != 0 {
		t.Errorf("metrics = %+v", m)
	}
}

func TestScheduleEvery(t *testing.T) {
	clk := NewFakeClock(at("2026-08-08 10:00"))
	sub := newFakeSubmitter()
	h := newHarness(t, clk, Config{Submit: sub.submit})
	if _, err := h.s.Add(testSpec("fast", "@every 10s")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		h.advance(t, 10*time.Second)
		waitFire(t, sub)
	}
	if sub.count() != 3 {
		t.Errorf("fires = %d, want 3", sub.count())
	}
}

func TestJobCompletedAttribution(t *testing.T) {
	clk := NewFakeClock(at("2026-08-08 10:00"))
	sub := newFakeSubmitter()
	h := newHarness(t, clk, Config{Submit: sub.submit})
	s := h.s
	spec := testSpec("nightly", "@every 1m")
	spec.Notify = []string{"hook", "log"}
	if _, err := s.Add(spec); err != nil {
		t.Fatal(err)
	}
	h.advance(t, time.Minute)
	id := waitFire(t, sub)

	name, notify, ok := s.JobCompleted(enc.JobStatus{ID: id, State: enc.JobDone})
	if !ok || name != "nightly" {
		t.Fatalf("JobCompleted = %q/%v", name, ok)
	}
	if len(notify) != 2 || notify[0] != "hook" {
		t.Errorf("notify = %v", notify)
	}
	if _, _, ok := s.JobCompleted(enc.JobStatus{ID: "j-unrelated"}); ok {
		t.Error("unrelated job attributed to a schedule")
	}
	st, _ := s.Get("nightly")
	if st.LastState != enc.JobDone {
		t.Errorf("LastState = %q, want done", st.LastState)
	}
}

func TestJobCompletedOverlappingFires(t *testing.T) {
	clk := NewFakeClock(at("2026-08-08 10:00"))
	sub := newFakeSubmitter()
	h := newHarness(t, clk, Config{Submit: sub.submit})
	s := h.s
	spec := testSpec("nightly", "@every 1m")
	spec.Notify = []string{"hook"}
	if _, err := s.Add(spec); err != nil {
		t.Fatal(err)
	}
	h.advance(t, time.Minute)
	id1 := waitFire(t, sub)
	h.advance(t, time.Minute)
	id2 := waitFire(t, sub)

	// The older job completes after the newer fire: it must still
	// attribute (its notifiers depend on it) ...
	name, notify, ok := s.JobCompleted(enc.JobStatus{ID: id1, State: enc.JobDone})
	if !ok || name != "nightly" || len(notify) != 1 {
		t.Fatalf("older fire lost attribution: %q/%v/%v", name, notify, ok)
	}
	// ... without overwriting the newer, still-running job's state.
	st, _ := s.Get("nightly")
	if st.LastJob != id2 || st.LastState != "" {
		t.Errorf("status after old completion = %q/%q, want %q pending", st.LastJob, st.LastState, id2)
	}
	// A completed job is pruned: a duplicate completion no longer attributes.
	if _, _, ok := s.JobCompleted(enc.JobStatus{ID: id1, State: enc.JobDone}); ok {
		t.Error("completed job attributed twice")
	}
	if name, _, ok := s.JobCompleted(enc.JobStatus{ID: id2, State: enc.JobFailed}); !ok || name != "nightly" {
		t.Fatalf("newest fire lost attribution: %q/%v", name, ok)
	}
	st, _ = s.Get("nightly")
	if st.LastState != enc.JobFailed {
		t.Errorf("LastState = %q, want failed", st.LastState)
	}
}

func TestFireErrorRecorded(t *testing.T) {
	clk := NewFakeClock(at("2026-08-08 10:00"))
	sub := newFakeSubmitter()
	sub.fail = errors.New("queue full")
	h := newHarness(t, clk, Config{Submit: sub.submit})
	s := h.s
	if _, err := s.Add(testSpec("doomed", "@every 1m")); err != nil {
		t.Fatal(err)
	}
	h.advance(t, time.Minute)

	deadline := time.Now().Add(5 * time.Second)
	for {
		if st, _ := s.Get("doomed"); st.LastError != "" {
			if st.Fires != 0 {
				t.Errorf("failed fire counted: %+v", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("fire error never recorded")
		}
		time.Sleep(time.Millisecond)
	}
	if m := s.Metrics(); m.FireErrors != 1 || m.Fires != 0 {
		t.Errorf("metrics = %+v", m)
	}
	// Cadence continues after a failed fire.
	st, _ := s.Get("doomed")
	if !st.NextFire.After(at("2026-08-08 10:01")) {
		t.Errorf("NextFire not advanced past the failed fire: %s", st.NextFire)
	}
}

func TestAddRemoveValidation(t *testing.T) {
	clk := NewFakeClock(at("2026-08-08 10:00"))
	sub := newFakeSubmitter()
	s := newHarness(t, clk, Config{
		Submit:      sub.submit,
		Validate:    func(spec enc.JobSpec) error { return errors.New("bad spec") },
		HasNotifier: func(name string) bool { return name == "known" },
	}).s

	if _, err := s.Add(enc.ScheduleSpec{Cron: "* * * * *"}); !errors.Is(err, ErrInvalid) {
		t.Errorf("empty name: %v", err)
	}
	if _, err := s.Add(enc.ScheduleSpec{Name: "x", Cron: "* * * * *"}); !errors.Is(err, ErrInvalid) {
		t.Errorf("nil job: %v", err)
	}
	if _, err := s.Add(testSpec("x", "not cron")); !errors.Is(err, ErrInvalid) {
		t.Errorf("bad cron: %v", err)
	}
	if _, err := s.Add(testSpec("x", "* * * * *")); !errors.Is(err, ErrInvalid) {
		t.Errorf("validate hook ignored: %v", err)
	}
	if err := s.Remove("ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("remove unknown: %v", err)
	}

	// With validation passing, duplicate names and unknown notifiers.
	s2 := newHarness(t, NewFakeClock(at("2026-08-08 10:00")), Config{
		Submit:      sub.submit,
		HasNotifier: func(name string) bool { return name == "known" },
	}).s
	ok := testSpec("dup", "* * * * *")
	if _, err := s2.Add(ok); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Add(ok); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate: %v", err)
	}
	bad := testSpec("other", "* * * * *")
	bad.Notify = []string{"mystery"}
	if _, err := s2.Add(bad); !errors.Is(err, ErrInvalid) {
		t.Errorf("unknown notifier: %v", err)
	}
	if _, err := s2.Add(testSpec("never", "0 0 30 2 *")); !errors.Is(err, ErrInvalid) {
		t.Errorf("never-firing cron accepted: %v", err)
	}
	if err := s2.Remove("dup"); err != nil {
		t.Fatal(err)
	}
	if got := s2.List(); len(got) != 0 {
		t.Errorf("List after remove = %v", got)
	}
}

func TestStopRejectsMutation(t *testing.T) {
	clk := NewFakeClock(at("2026-08-08 10:00"))
	s := newHarness(t, clk, Config{Submit: newFakeSubmitter().submit}).s
	s.Stop()
	if _, err := s.Add(testSpec("late", "* * * * *")); !errors.Is(err, ErrStopped) {
		t.Errorf("Add after Stop: %v", err)
	}
	if err := s.Remove("late"); !errors.Is(err, ErrStopped) {
		t.Errorf("Remove after Stop: %v", err)
	}
	s.Stop() // idempotent
}

// nowSignal is a FakeClock that reports Now calls on a channel (dropping
// reports nobody has received yet).
type nowSignal struct {
	*FakeClock
	called chan struct{}
}

func (c nowSignal) Now() time.Time {
	select {
	case c.called <- struct{}{}:
	default:
	}
	return c.FakeClock.Now()
}

// TestFireLoopArmsAbsoluteDeadline moves the clock forward between the
// fire loop reading Now and arming its next wait: the Submit of a fire
// runs in exactly that window, and here it advances the clock by one
// cadence step. The next fire is then already due, so it must follow
// without any further Advance — a wait measured from the moment of
// arming would postpone it by the whole step.
func TestFireLoopArmsAbsoluteDeadline(t *testing.T) {
	clk := nowSignal{NewFakeClock(at("2026-08-08 10:00")), make(chan struct{}, 1)}
	sub := newFakeSubmitter()
	stepped := false
	submit := func(spec enc.JobSpec) (string, error) {
		if !stepped { // only the fire loop calls Submit
			stepped = true
			clk.Advance(time.Hour)
		}
		return sub.submit(spec)
	}
	s, err := New(Config{Submit: submit, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	// Let the loop take its first, empty pass before the schedule exists,
	// so Add's wake-up is consumed before the step (a leftover wake-up
	// would start a fresh pass and mask a late timer).
	<-clk.called
	if _, err := s.Add(testSpec("hourly", "@every 1h")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Hour) // 11:00: the first fire, which steps to 12:00
	waitFire(t, sub)
	waitFire(t, sub) // the 12:00 fire, with no Advance after the step
}

func TestStatePersistsAcrossRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "schedules.json")
	clk := NewFakeClock(at("2026-08-08 10:00"))
	sub := newFakeSubmitter()
	h := newHarness(t, clk, Config{Submit: sub.submit, StatePath: path})
	if _, err := h.s.Add(testSpec("nightly", "@every 1h")); err != nil {
		t.Fatal(err)
	}
	h.advance(t, time.Hour)
	waitFire(t, sub)
	h.s.Stop()
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("state file not written: %v", err)
	}

	// Restart two hours later: restored next_fire (12:00) is already
	// past, so re-adding the schedule catches up with one fire.
	clk2 := NewFakeClock(at("2026-08-08 13:00"))
	sub2 := newFakeSubmitter()
	s2 := newHarness(t, clk2, Config{Submit: sub2.submit, StatePath: path}).s
	st, err := s2.Add(testSpec("nightly", "@every 1h"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Fires != 1 {
		t.Errorf("restored fire count = %d, want 1", st.Fires)
	}
	waitFire(t, sub2)
	got, _ := s2.Get("nightly")
	if got.Fires != 2 {
		t.Errorf("fires after catch-up = %d, want 2", got.Fires)
	}
	if !got.NextFire.Equal(at("2026-08-08 14:00")) {
		t.Errorf("NextFire after catch-up = %s, want 14:00", got.NextFire)
	}
}

func TestStatePersistsAllSchedulesAcrossRestart(t *testing.T) {
	// Startup re-registers config schedules one Add at a time; the first
	// Add's persist must not clobber the saved state of schedules not yet
	// re-added.
	path := filepath.Join(t.TempDir(), "schedules.json")
	clk := NewFakeClock(at("2026-08-08 10:00"))
	sub := newFakeSubmitter()
	h := newHarness(t, clk, Config{Submit: sub.submit, StatePath: path})
	if _, err := h.s.Add(testSpec("alpha", "@every 1h")); err != nil {
		t.Fatal(err)
	}
	if _, err := h.s.Add(testSpec("beta", "@every 1h")); err != nil {
		t.Fatal(err)
	}
	h.advance(t, time.Hour)
	waitFire(t, sub)
	waitFire(t, sub)
	h.s.Stop()

	// Restart at 13:00 and re-add in the same order: alpha's Add rewrites
	// the state file before beta registers, so beta's restore must come
	// from state loaded at New, not from the file.
	clk2 := NewFakeClock(at("2026-08-08 13:00"))
	sub2 := newFakeSubmitter()
	s2 := newHarness(t, clk2, Config{Submit: sub2.submit, StatePath: path}).s
	stA, err := s2.Add(testSpec("alpha", "@every 1h"))
	if err != nil {
		t.Fatal(err)
	}
	stB, err := s2.Add(testSpec("beta", "@every 1h"))
	if err != nil {
		t.Fatal(err)
	}
	if stA.Fires != 1 || !stA.NextFire.Equal(at("2026-08-08 12:00")) {
		t.Errorf("alpha restored = %d fires, next %s; want 1 fire, next 12:00", stA.Fires, stA.NextFire)
	}
	if stB.Fires != 1 || !stB.NextFire.Equal(at("2026-08-08 12:00")) {
		t.Errorf("beta restored = %d fires, next %s; want 1 fire, next 12:00", stB.Fires, stB.NextFire)
	}
}

func TestCorruptStateFileIgnored(t *testing.T) {
	path := filepath.Join(t.TempDir(), "schedules.json")
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	clk := NewFakeClock(at("2026-08-08 10:00"))
	s := newHarness(t, clk, Config{Submit: newFakeSubmitter().submit, StatePath: path}).s
	if _, err := s.Add(testSpec("fresh", "@every 1h")); err != nil {
		t.Fatalf("corrupt state blocked Add: %v", err)
	}
}

func TestSchedulerObsCounters(t *testing.T) {
	reg := obs.NewRegistry()
	clk := NewFakeClock(at("2026-08-08 10:00"))
	sub := newFakeSubmitter()
	h := newHarness(t, clk, Config{Submit: sub.submit, Obs: reg})
	if _, err := h.s.Add(testSpec("one", "@every 1m")); err != nil {
		t.Fatal(err)
	}
	h.advance(t, time.Minute)
	waitFire(t, sub)

	var b bytes.Buffer
	reg.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"stemsd_schedule_fires_total 1",
		"stemsd_schedules 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus exposition missing %q:\n%s", want, out)
		}
	}
}
