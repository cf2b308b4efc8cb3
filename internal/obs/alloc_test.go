// Allocation-regression gate for the obs record path, in the style of
// the root alloc_test.go: Counter.Add, Histogram.Observe, and Rate.Add
// run inside replay progress callbacks and HTTP handlers, so a heap
// allocation here taxes every request and every simulated block. The
// record path is required to stay at zero allocations per operation.
package obs

import (
	"testing"
	"time"

	"stems/internal/allocgate"
)

func TestRecordPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	r := NewRegistry()
	c := r.Counter("alloc_c_total", "c")
	h := r.Histogram("alloc_h_seconds", "h", L("route", "x"))
	rate := NewRate()
	d := time.Duration(0)
	if n := allocgate.Mallocs(100, func() {
		for i := 0; i < 1000; i++ {
			c.Add(1)
			h.Observe(d)
			rate.Add(1)
			d += 977 // sweep across buckets
		}
	}); n != 0 {
		t.Fatalf("obs record path allocated %d objects in 100 runs of 1000 ops, want 0", n)
	}
}
