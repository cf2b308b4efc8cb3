package trace

import "sync"

// ArenaKey identifies one generated trace: the workload name, the generator
// seed, and the trace length.
type ArenaKey struct {
	Name string
	Seed int64
	N    int
}

// ArenaStats summarizes an arena's activity.
type ArenaStats struct {
	// Generations is the total number of generator invocations.
	Generations int
	// Regenerated counts keys generated more than once (a key re-generated
	// after Drop, or — if this is ever nonzero without Drop — a caching
	// bug). The figure harness's generation-count test asserts zero.
	Regenerated int
	// Hits counts Get calls served from cache.
	Hits int
	// Resident is the number of traces currently held.
	Resident int
}

// arenaEntry is one cached trace; gen is a single-flight latch so
// concurrent Gets of the same key generate once.
type arenaEntry struct {
	gen sync.Once
	bt  *BlockTrace
}

// Arena caches generated workload traces so that a grid of runs — every
// predictor kind × seed cell of a figure, every point of a sweep —
// replays one shared read-only trace instead of regenerating it per cell.
// Trace generation costs as much as simulation for the synthetic suite,
// and the figure harness used to pay it O(kinds × seeds) times per
// workload; through an arena each (workload, seed, length) trace is
// generated exactly once.
//
// Traces are held as packed BlockTraces — the generator's []Access is
// compacted on entry and released, so a resident suite trace costs
// 5.3-6.3 bytes/access instead of 24 (see BlockTrace), and every replay
// feeds the batched kernel through a cursor of its own.
//
// An Arena is safe for concurrent use. The traces it hands out are shared:
// callers must treat them as read-only.
type Arena struct {
	mu      sync.Mutex
	entries map[ArenaKey]*arenaEntry
	gens    map[ArenaKey]int
	hits    int
}

// NewArena creates an empty trace cache.
func NewArena() *Arena {
	return &Arena{
		entries: make(map[ArenaKey]*arenaEntry),
		gens:    make(map[ArenaKey]int),
	}
}

// Get returns the cached trace for (name, seed, n), invoking generate to
// produce it on first use; the generated slice is compacted into columnar
// blocks and not retained. Concurrent Gets of the same key block until the
// single generator invocation completes.
func (a *Arena) Get(name string, seed int64, n int, generate func() []Access) *BlockTrace {
	k := ArenaKey{Name: name, Seed: seed, N: n}
	a.mu.Lock()
	e, ok := a.entries[k]
	if !ok {
		e = &arenaEntry{}
		a.entries[k] = e
	} else {
		a.hits++
	}
	a.mu.Unlock()
	e.gen.Do(func() {
		e.bt = NewBlockTrace(generate())
		a.mu.Lock()
		a.gens[k]++
		a.mu.Unlock()
	})
	return e.bt
}

// Drop releases the trace for (name, seed, n), freeing its memory. The
// figure harness drops each extra confidence-interval seed of Figure 10
// as soon as the last run replaying it lands, so only the base-seed
// traces stay resident. Generation counts survive Drop.
func (a *Arena) Drop(name string, seed int64, n int) {
	a.mu.Lock()
	delete(a.entries, ArenaKey{Name: name, Seed: seed, N: n})
	a.mu.Unlock()
}

// Stats returns cumulative cache statistics.
func (a *Arena) Stats() ArenaStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := ArenaStats{Hits: a.hits, Resident: len(a.entries)}
	for _, n := range a.gens {
		st.Generations += n
		if n > 1 {
			st.Regenerated++
		}
	}
	return st
}

// Generations returns how many times the given key's trace has been
// generated over the arena's lifetime (Drop does not reset it).
func (a *Arena) Generations(name string, seed int64, n int) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.gens[ArenaKey{Name: name, Seed: seed, N: n}]
}
