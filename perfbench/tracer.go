package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one job share Job; a
// span's self time is its duration minus the durations of its children.
// An aggregate span (Agg) sums many short calls — the STeMS callbacks —
// whose individual recording would cost more than the calls.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Job    string `json:"job,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // offset from the tracer's start
	Dur    int64  `json:"dur_ns"`
	N      int64  `json:"n"` // work the span covers: accesses, calls, runs
	Agg    bool   `json:"agg,omitempty"`
}

// tracer keeps spans in memory; they are written out when the benchmark
// ends. A nil or disabled tracer records nothing and costs one branch.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// enabled reports whether spans are being recorded.
func (t *tracer) enabled() bool { return t != nil && t.on }

// open starts a span and returns its ID (-1 when tracing is off).
func (t *tracer) open(name string, parent int, job string) int {
	if !t.enabled() {
		return -1
	}
	start := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Job: job, Name: name, Start: start})
	return len(t.spans) - 1
}

// close ends span id, recording n units of work.
func (t *tracer) close(id int, n int64) {
	if id < 0 {
		return
	}
	end := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.Dur, s.N = end-s.Start, n
}

// setJob names the job of spans opened before its ID was known.
func (t *tracer) setJob(job string, ids ...int) {
	if !t.enabled() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, id := range ids {
		if id >= 0 {
			t.spans[id].Job = job
		}
	}
}

// add records a span measured by the caller.
func (t *tracer) add(name string, parent int, job string, start time.Time, d time.Duration, n int64, agg bool) int {
	if !t.enabled() {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: parent, Job: job, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), Dur: d.Nanoseconds(), N: n, Agg: agg,
	})
	return len(t.spans) - 1
}

// layerTotal sums the spans of one name.
type layerTotal struct {
	Name  string
	Count int   // spans
	N     int64 // work units
	Dur   int64 // ns
	Self  int64 // ns, duration minus child spans
}

// totals aggregates spans by name, with self times.
func (t *tracer) totals() map[string]*layerTotal {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.Dur
		}
	}
	out := make(map[string]*layerTotal)
	for i, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotal{Name: s.Name}
			out[s.Name] = lt
		}
		lt.Count++
		lt.N += s.N
		lt.Dur += s.Dur
		lt.Self += s.Dur - child[i]
	}
	return out
}

// writeSpans writes every span as one JSON line.
func (t *tracer) writeSpans(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// report prints the per-layer self-time table, largest first.
func (t *tracer) report(w io.Writer) {
	tot := t.totals()
	names := make([]string, 0, len(tot))
	for n := range tot {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return tot[names[i]].Self > tot[names[j]].Self })
	fmt.Fprintf(w, "# %-28s %8s %12s %12s %12s\n", "span", "count", "n", "total_ms", "self_ms")
	for _, n := range names {
		lt := tot[n]
		fmt.Fprintf(w, "# %-28s %8d %12d %12.3f %12.3f\n", n, lt.Count, lt.N, float64(lt.Dur)/1e6, float64(lt.Self)/1e6)
	}
}

// now reads the clock only when tracing is on, so an untraced replay of
// the same calls pays for no clock reads.
func (t *tracer) now() time.Time {
	if !t.enabled() {
		return time.Time{}
	}
	return time.Now()
}

// since is time.Since for a stamp from now.
func (t *tracer) since(s time.Time) time.Duration {
	if s.IsZero() {
		return 0
	}
	return time.Since(s)
}
