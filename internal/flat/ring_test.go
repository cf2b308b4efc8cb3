package flat

import (
	"math/rand"
	"testing"
)

type ringEntry struct {
	block uint64
	pc    uint64
}

func newTestRing(capacity int) *Ring[uint64, ringEntry] {
	return NewRing[uint64](capacity, func(e ringEntry) uint64 { return e.block })
}

// refRing is the reference model: every entry ever appended, plus a plain
// map from each key to the position it was last appended at.
type refRing struct {
	capacity uint64
	all      []ringEntry
	latest   map[uint64]uint64
}

func (r *refRing) append(e ringEntry) {
	r.latest[e.block] = uint64(len(r.all))
	r.all = append(r.all, e)
}

func (r *refRing) live(pos uint64) bool {
	n := uint64(len(r.all))
	return pos < n && n-pos <= r.capacity
}

func (r *refRing) lookup(key uint64) (uint64, bool) {
	pos, ok := r.latest[key]
	if !ok || !r.live(pos) {
		return 0, false
	}
	return pos, true
}

// Property: under random appends, lookups and positional reads, a Ring
// answers exactly like the reference model — through the entry array's
// first growth, its growth to a non-power-of-two bound, wrap-around, index
// growth and rebuilds, and lookups of keys the ring has lapped.
func TestRingMatchesReference(t *testing.T) {
	for _, tc := range []struct{ capacity, keySpace int }{
		{1, 4}, {3, 8}, {7, 5}, {8, 64}, {300, 200}, {300, 5000},
		{777, 100000}, {1000, 1500}, {3001, 10000}, {4096, 1 << 20},
	} {
		rng := rand.New(rand.NewSource(int64(tc.capacity)*7919 + int64(tc.keySpace)))
		r := newTestRing(tc.capacity)
		ref := &refRing{capacity: uint64(tc.capacity), latest: map[uint64]uint64{}}
		steps := 20*tc.capacity + 5000
		stale := 0
		for step := 0; step < steps; step++ {
			k := uint64(rng.Intn(tc.keySpace))
			switch rng.Intn(4) {
			case 0, 1:
				e := ringEntry{block: k, pc: uint64(step)}
				r.Append(e)
				ref.append(e)
			case 2:
				gp, gok := r.Lookup(k)
				rp, rok := ref.lookup(k)
				if gok != rok || gp != rp {
					t.Fatalf("cap=%d space=%d step=%d: Lookup(%d) = (%d,%v), ref (%d,%v)",
						tc.capacity, tc.keySpace, step, k, gp, gok, rp, rok)
				}
				if _, seen := ref.latest[k]; seen && !rok {
					stale++
				}
			case 3:
				n := uint64(len(ref.all))
				pos := uint64(rng.Int63n(int64(n + 2)))
				if n > uint64(tc.capacity)+2 && rng.Intn(2) == 0 {
					pos = n - uint64(tc.capacity) - 2 + uint64(rng.Intn(4)) // straddle the tail
				}
				ge, gok := r.At(pos)
				if rok := ref.live(pos); gok != rok || (gok && ge != ref.all[pos]) {
					t.Fatalf("cap=%d space=%d step=%d: At(%d) = (%v,%v), live=%v",
						tc.capacity, tc.keySpace, step, pos, ge, gok, rok)
				}
				if gok && r.Entries()[r.Slot(pos)] != ge {
					t.Fatalf("cap=%d step=%d: Entries()[Slot(%d)] disagrees with At", tc.capacity, step, pos)
				}
			}
			n := uint64(len(ref.all))
			if r.Appends() != n || r.Len() != int(min(n, uint64(tc.capacity))) {
				t.Fatalf("cap=%d step=%d: Appends=%d Len=%d, ref %d", tc.capacity, step, r.Appends(), r.Len(), n)
			}
			if lo, hi := r.Live(); hi != n || hi-lo != uint64(r.Len()) {
				t.Fatalf("cap=%d step=%d: Live=[%d,%d) with %d appends", tc.capacity, step, lo, hi, n)
			}
		}
		if len(r.Entries()) != tc.capacity {
			t.Fatalf("cap=%d: entry array is %d long after %d appends", tc.capacity, len(r.Entries()), r.Appends())
		}
		if tc.keySpace > 4*tc.capacity && r.Reindexes() == 0 {
			t.Fatalf("cap=%d space=%d: index never rebuilt", tc.capacity, tc.keySpace)
		}
		if stale > 0 && r.StaleLookups()+r.Reindexes() == 0 {
			t.Fatalf("cap=%d space=%d: %d lapped lookups, none detected", tc.capacity, tc.keySpace, stale)
		}
	}
}

// A ring allocates what it holds: the entry array and the index grow with
// appends, not with the capacity, and stop at it.
func TestRingGrowsToBound(t *testing.T) {
	r := newTestRing(384 << 10)
	if got := len(r.Entries()); got != ringStart {
		t.Fatalf("new ring holds %d entries, want %d", got, ringStart)
	}
	for i := 0; i < 1000; i++ {
		r.Append(ringEntry{block: uint64(i)})
	}
	if got := len(r.Entries()); got != 1024 {
		t.Fatalf("after 1000 appends the entry array is %d long, want 1024", got)
	}
	if got := r.index.Cap(); got >= 4096 {
		t.Fatalf("after 1000 distinct keys the index has room for %d", got)
	}
	small := newTestRing(5)
	for i := 0; i < 100; i++ {
		small.Append(ringEntry{block: uint64(i)})
	}
	if got := len(small.Entries()); got != 5 {
		t.Fatalf("capacity-5 ring holds %d entries", got)
	}
}

func TestRingPanicsOnZeroCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRing(0) did not panic")
		}
	}()
	newTestRing(0)
}
