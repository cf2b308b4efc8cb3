// Package notify delivers job-completion notifications. A Notifier is a
// named delivery channel for enc.Notification documents; the two
// built-ins are Webhook (JSON POST with bounded retry and exponential
// backoff) and Log (a structured slog line). A Set fans one notification
// out to several notifiers asynchronously — workers finishing jobs never
// wait on a slow webhook — with per-notifier delivery counters in
// internal/obs and a drain-aware Close that lets in-flight deliveries
// land before the daemon exits.
package notify

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"stems/internal/enc"
	"stems/internal/obs"
)

// Notifier is one completion-delivery channel. Send blocks until the
// notification is delivered or abandoned; the Set wraps it in a
// goroutine, so implementations are free to retry with backoff.
type Notifier interface {
	// Name identifies the notifier; schedules reference it in their
	// "notify" lists.
	Name() string
	// Send delivers one notification, retrying internally as the
	// implementation sees fit. A nil return means delivered.
	Send(ctx context.Context, n enc.Notification) error
}

// WebhookConfig tunes a webhook notifier. Zero values select the
// defaults noted per field.
type WebhookConfig struct {
	// URL receives the notification as a JSON POST body.
	URL string
	// Attempts is the total delivery attempts per notification before it
	// counts as failed (default 3).
	Attempts int
	// Backoff is the wait after the first failed attempt, doubling per
	// retry (default 250ms).
	Backoff time.Duration
	// Timeout bounds each individual HTTP attempt (default 5s).
	Timeout time.Duration
	// Client overrides the HTTP client (default http.DefaultClient);
	// tests inject a httptest client here.
	Client *http.Client
}

func (c *WebhookConfig) fill() {
	if c.Attempts <= 0 {
		c.Attempts = 3
	}
	if c.Backoff <= 0 {
		c.Backoff = 250 * time.Millisecond
	}
	if c.Timeout <= 0 {
		c.Timeout = 5 * time.Second
	}
	if c.Client == nil {
		c.Client = http.DefaultClient
	}
}

// Webhook POSTs notifications as JSON to a fixed URL, retrying transport
// errors and non-2xx responses with exponential backoff.
type Webhook struct {
	name    string
	cfg     WebhookConfig
	retries *atomic.Uint64 // owned by the Set, counts attempts beyond the first
}

// NewWebhook builds a webhook notifier. The URL is taken as given —
// validate it at configuration time (internal/conf does).
func NewWebhook(name string, cfg WebhookConfig) *Webhook {
	cfg.fill()
	return &Webhook{name: name, cfg: cfg}
}

// Name implements Notifier.
func (w *Webhook) Name() string { return w.name }

// Send implements Notifier: up to Attempts POSTs, backing off between
// them. Any 2xx status is a delivery; everything else retries until the
// budget runs out or ctx is cancelled.
func (w *Webhook) Send(ctx context.Context, n enc.Notification) error {
	body, err := json.Marshal(n)
	if err != nil {
		return fmt.Errorf("notify: webhook %s: encoding: %w", w.name, err)
	}
	backoff := w.cfg.Backoff
	var lastErr error
	for attempt := 0; attempt < w.cfg.Attempts; attempt++ {
		if attempt > 0 {
			if w.retries != nil {
				w.retries.Add(1)
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(backoff):
			}
			backoff *= 2
		}
		lastErr = w.post(ctx, body)
		if lastErr == nil {
			return nil
		}
	}
	return fmt.Errorf("notify: webhook %s: %d attempts: %w", w.name, w.cfg.Attempts, lastErr)
}

func (w *Webhook) post(ctx context.Context, body []byte) error {
	ctx, cancel := context.WithTimeout(ctx, w.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.URL, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close() //nolint:errcheck // status is the signal; the body is ignored
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return nil
}

// Log emits each notification as one structured slog line — the
// no-infrastructure notifier a fleet's log pipeline picks up.
type Log struct {
	name string
	log  *slog.Logger
}

// NewLog builds a slog notifier writing through logger (nil discards).
func NewLog(name string, logger *slog.Logger) *Log {
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	return &Log{name: name, log: logger}
}

// Name implements Notifier.
func (l *Log) Name() string { return l.name }

// Send implements Notifier; it cannot fail.
func (l *Log) Send(_ context.Context, n enc.Notification) error {
	l.log.Info("job completed",
		"notifier", l.name, "job", n.Job, "state", string(n.State),
		"schedule", n.Schedule, "runs_done", n.RunsDone, "runs_total", n.RunsTotal,
		"cache_hits", n.CacheHits, "err", n.Error)
	return nil
}

// Set is a named collection of notifiers with asynchronous fan-out.
// Register notifiers at startup, Send per completed job, Close at drain.
type Set struct {
	log *slog.Logger
	reg *obs.Registry

	mu        sync.Mutex
	notifiers map[string]*member
	allJobs   []string // names notified for every job completion
	closed    bool

	retries atomic.Uint64

	wg sync.WaitGroup
}

// member is one registered notifier with its delivery counters, which
// both the Prometheus exposition and the JSON /metrics totals read.
type member struct {
	Notifier
	sent, failed *obs.Counter
}

// NewSet builds an empty notifier set. reg receives the per-notifier
// stemsd_notifications_sent_total / _failed_total counters (nil: a
// private registry); logger (may be nil) receives delivery failures.
func NewSet(reg *obs.Registry, logger *slog.Logger) *Set {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	return &Set{
		log:       logger,
		reg:       reg,
		notifiers: make(map[string]*member),
	}
}

// Register adds a notifier under its name. allJobs marks it for every
// job completion, not only the schedules that name it. Duplicate names
// are a configuration error.
func (s *Set) Register(n Notifier, allJobs bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	name := n.Name()
	if name == "" {
		return fmt.Errorf("notify: empty notifier name")
	}
	if _, dup := s.notifiers[name]; dup {
		return fmt.Errorf("notify: duplicate notifier %q", name)
	}
	s.notifiers[name] = &member{
		Notifier: n,
		sent: s.reg.Counter("stemsd_notifications_sent_total",
			"Completion notifications delivered, by notifier.", obs.L("notifier", name)),
		failed: s.reg.Counter("stemsd_notifications_failed_total",
			"Completion notifications abandoned after retries, by notifier.", obs.L("notifier", name)),
	}
	if w, ok := n.(*Webhook); ok {
		w.retries = &s.retries
	}
	if allJobs {
		s.allJobs = append(s.allJobs, name)
	}
	return nil
}

// Names lists the registered notifier names, sorted.
func (s *Set) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.notifiers))
	for name := range s.notifiers {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Has reports whether a notifier name is registered.
func (s *Set) Has(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.notifiers[name]
	return ok
}

// AllJobs lists the notifiers registered for every job completion.
func (s *Set) AllJobs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.allJobs...)
}

// Send fans n out to the named notifiers plus every all-jobs notifier,
// each delivery on its own goroutine (duplicate and unknown names are
// ignored — unknown ones were rejected at configuration time). It
// returns immediately; Close waits for deliveries in flight. Sends after
// Close are dropped.
func (s *Set) Send(names []string, n enc.Notification) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	targets := make([]*member, 0, len(names)+len(s.allJobs))
	seen := make(map[string]bool, len(names)+len(s.allJobs))
	for _, name := range append(append([]string{}, names...), s.allJobs...) {
		if m, ok := s.notifiers[name]; ok && !seen[name] {
			seen[name] = true
			targets = append(targets, m)
		}
	}
	s.wg.Add(len(targets))
	s.mu.Unlock()

	for _, m := range targets {
		go func(m *member) {
			defer s.wg.Done()
			if err := m.Send(context.Background(), n); err != nil {
				m.failed.Inc()
				s.log.Warn("notification delivery failed",
					"notifier", m.Name(), "job", n.Job, "err", err)
				return
			}
			m.sent.Inc()
		}(m)
	}
}

// Metrics snapshots the set-wide delivery totals, summed over the
// notifiers' counters, for the JSON /metrics document.
func (s *Set) Metrics() enc.NotifyMetrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := enc.NotifyMetrics{Notifiers: len(s.notifiers), Retries: s.retries.Load()}
	for _, m := range s.notifiers {
		out.Sent += m.sent.Value()
		out.Failed += m.failed.Value()
	}
	return out
}

// Close waits for in-flight deliveries, then drops any further Sends —
// the drain path: stop the scheduler, drain the service (completions
// still notify), then Close the set.
func (s *Set) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.wg.Wait()
}
