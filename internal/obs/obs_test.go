package obs

import (
	"sync"
	"testing"
	"time"
)

// ---- histogram bucketing ----

// TestBucketBoundaries pins the bucket function at its edges: every
// observation lands in the smallest bucket whose power-of-two bound
// contains it, and out-of-range values clamp into the overflow bucket.
func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{-5, 0}, // negative clamps to zero
		{0, 0},
		{1, 0},                            // ≤ 2^0
		{2, 1},                            // ≤ 2^1
		{3, 2},                            // > 2 so next bucket
		{4, 2},                            // = 2^2
		{5, 3},                            // > 2^2
		{1024, 10},                        // exactly 2^10
		{1025, 11},                        // one past
		{time.Hour, 42},                   // 3.6e12 ns ≤ 2^42 (≈4.4e12)
		{100 * time.Hour, NumBuckets - 1}, // overflow bucket
	}
	for _, c := range cases {
		var h Histogram
		h.Observe(c.d)
		s := h.Snapshot()
		got := -1
		for i, n := range s.Buckets {
			if n != 0 {
				got = i
			}
		}
		if got != c.want {
			t.Errorf("Observe(%v): bucket %d, want %d", c.d, got, c.want)
		}
		if s.Count != 1 {
			t.Errorf("Observe(%v): count %d, want 1", c.d, s.Count)
		}
	}
	// Bucket bounds themselves: 2^i nanoseconds.
	if BucketBound(0) != 1 || BucketBound(10) != 1024 {
		t.Errorf("BucketBound: got %v, %v", BucketBound(0), BucketBound(10))
	}
}

// TestSnapshotMergeAndStats checks merge arithmetic plus the mean and
// quantile estimators over a known distribution.
func TestSnapshotMergeAndStats(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 90; i++ {
		a.Observe(1 * time.Microsecond) // bucket bound 1.024µs
	}
	for i := 0; i < 10; i++ {
		b.Observe(1 * time.Millisecond)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	sa.Merge(sb)
	if sa.Count != 100 {
		t.Fatalf("merged count = %d, want 100", sa.Count)
	}
	if want := uint64(90)*uint64(time.Microsecond) + uint64(10)*uint64(time.Millisecond); sa.SumNanos != want {
		t.Fatalf("merged sum = %d, want %d", sa.SumNanos, want)
	}
	// p50 sits in the microsecond bucket, p99 in the millisecond bucket.
	if q := sa.Quantile(0.50); q < time.Microsecond || q > 2*time.Microsecond {
		t.Errorf("p50 = %v, want ~1µs bucket bound", q)
	}
	if q := sa.Quantile(0.99); q < time.Millisecond || q > 2*time.Millisecond {
		t.Errorf("p99 = %v, want ~1ms bucket bound", q)
	}
	if m := sa.Mean(); m < 90*time.Microsecond || m > 120*time.Microsecond {
		t.Errorf("mean = %v, want ≈100µs", m)
	}
	// Empty snapshots are inert.
	var empty Snapshot
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Error("empty snapshot produced nonzero stats")
	}
}

// TestConcurrentRecord hammers one histogram and one counter from many
// goroutines; under -race this doubles as the data-race gate, and the
// final counts must be exact (atomics lose nothing).
func TestConcurrentRecord(t *testing.T) {
	var (
		h  Histogram
		c  Counter
		wg sync.WaitGroup
	)
	const workers, per = 8, 10_000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(i%4096) * time.Nanosecond)
				c.Add(1)
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("histogram count = %d, want %d", s.Count, workers*per)
	}
	var bucketSum uint64
	for _, b := range s.Buckets {
		bucketSum += b
	}
	if bucketSum != s.Count {
		t.Fatalf("bucket sum %d != count %d", bucketSum, s.Count)
	}
}

// ---- registry ----

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "x", L("a", "1"))
	r.Counter("x_total", "x", L("a", "2")) // same family, new labels: fine
	mustPanic(t, "duplicate series", func() { r.Counter("x_total", "x", L("a", "1")) })
	mustPanic(t, "type clash", func() { r.Histogram("x_total", "x") })
	mustPanic(t, "empty name", func() { r.Counter("", "x") })
	mustPanic(t, "nil attach", func() { r.AttachHistogram("h", "h", nil) })
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// ---- rate ----

// TestRateWindow drives a fake clock through the ring: the rate reflects
// only the trailing window, divides by elapsed time during warm-up, and
// forgets buckets older than the window.
func TestRateWindow(t *testing.T) {
	sec := int64(1_000_000)
	r := newRateAt(func() time.Time { return time.Unix(sec, 0) })

	// Warm-up: 500 events in the first 5 seconds → 100/s, not 500/60.
	for i := 0; i < 5; i++ {
		r.Add(100)
		sec++
	}
	if got := r.PerSec(); got != 100 {
		t.Fatalf("warm-up rate = %v, want 100", got)
	}

	// Idle for a full window: the burst ages out entirely.
	sec += rateWindow + 1
	if got := r.PerSec(); got != 0 {
		t.Fatalf("rate after idle window = %v, want 0", got)
	}

	// Steady state: 60 seconds of 10/s → exactly 10 (measured from
	// within the last counted second, before the oldest bucket ages out).
	for i := 0; i < rateWindow; i++ {
		r.Add(10)
		sec++
	}
	sec--
	if got := r.PerSec(); got != 10 {
		t.Fatalf("steady rate = %v, want 10", got)
	}
}
