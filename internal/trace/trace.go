// Package trace defines the memory-access record that flows from workload
// generators into the simulator and the two stream shapes that carry it:
// the per-access Source and the columnar BlockSource the replay pipeline
// runs on. It also holds the compact resident BlockTrace (blocks packed
// column by column into their narrowest encoding, 5.3-6.3 bytes/access on
// the suite), the Arena that shares generated traces, and the binary trace
// file format.
//
// The paper's methodology (§5.1) analyzes memory traces collected with
// in-order functional simulation; this package is the equivalent interface
// between our synthetic workloads and the predictors.
package trace

import "stems/internal/mem"

// Access is one memory reference as observed at the L1 data cache.
type Access struct {
	// Addr is the byte address referenced.
	Addr mem.Addr
	// PC identifies the instruction performing the access. The spatial
	// predictors correlate patterns with the trigger PC (§2.4).
	PC uint64
	// Write marks stores. Stores train the spatial predictor and occupy
	// cache space but, mirroring the paper's store-wait-free memory model
	// (§5.1), never stall the simulated core and are excluded from
	// coverage accounting.
	Write bool
	// Dep marks an access whose address depends on the result of the
	// previous off-chip access (pointer chasing). The timing model
	// serializes dependent off-chip misses while overlapping independent
	// ones, reproducing the MLP distinction at the heart of §5.6.
	Dep bool
	// Think is the committed-instruction work (in core cycles) preceding
	// this access. Workload generators use it to set the fraction of
	// execution time spent on off-chip stalls, which Table 1 workloads
	// differ on (e.g. §5.6: "speedups are low in Oracle because the
	// baseline system spends only one-quarter of time on off-chip memory
	// accesses").
	Think uint16
}

// Source is a pull-based stream of accesses. Next fills *a and reports
// whether an access was produced; it returns false at end of stream.
// Implementations are not safe for concurrent use.
type Source interface {
	Next(a *Access) bool
}

// SliceSource replays a recorded slice of accesses.
type SliceSource struct {
	accesses []Access
	pos      int
}

// NewSliceSource returns a Source that yields each access in order.
func NewSliceSource(accesses []Access) *SliceSource {
	return &SliceSource{accesses: accesses}
}

// Next implements Source.
func (s *SliceSource) Next(a *Access) bool {
	if s.pos >= len(s.accesses) {
		return false
	}
	*a = s.accesses[s.pos]
	s.pos++
	return true
}

// Reset rewinds the source to the beginning.
func (s *SliceSource) Reset() { s.pos = 0 }

// Len returns the total number of accesses in the source.
func (s *SliceSource) Len() int { return len(s.accesses) }

// lenHinter is the optional length-hint interface: sources that know (an
// upper bound on) how many accesses they will yield report it so Collect
// can preallocate instead of growing through O(log n) reallocations.
// SliceSource and Limit satisfy it; a negative value means unknown.
type lenHinter interface {
	Len() int
}

// Collect drains up to max accesses from src into a slice. A max of 0 means
// drain the entire source. Sources with a Len hint (SliceSource, Limit)
// are collected into one right-sized allocation.
func Collect(src Source, max int) []Access {
	var out []Access
	if h, ok := src.(lenHinter); ok {
		if n := h.Len(); n > 0 {
			if max > 0 && max < n {
				n = max
			}
			out = make([]Access, 0, n)
		}
	}
	var a Access
	for src.Next(&a) {
		out = append(out, a)
		if max > 0 && len(out) >= max {
			break
		}
	}
	return out
}

// Limit wraps a source, truncating it after n accesses.
type Limit struct {
	Src  Source
	N    int
	seen int
}

// NewLimit returns a Source yielding at most n accesses from src.
func NewLimit(src Source, n int) *Limit { return &Limit{Src: src, N: n} }

// Next implements Source.
func (l *Limit) Next(a *Access) bool {
	if l.seen >= l.N {
		return false
	}
	if !l.Src.Next(a) {
		return false
	}
	l.seen++
	return true
}

// Len returns an upper bound on the accesses the limit will yield: the cap
// itself, tightened by the wrapped source's own hint when it has one.
func (l *Limit) Len() int {
	n := l.N
	if h, ok := l.Src.(lenHinter); ok {
		if m := h.Len(); m >= 0 && m < n {
			n = m
		}
	}
	return n
}
