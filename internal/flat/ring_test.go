package flat

import (
	"math/rand"
	"testing"
	"unsafe"

	"stems/internal/allocgate"
)

type ringEntry struct {
	block uint64
	pc    uint64
}

func newTestRing(capacity int) *Ring[uint64, ringEntry] {
	return NewRing[uint64](capacity, func(e ringEntry) uint64 { return e.block })
}

// refRing is the reference model: every entry ever appended, a plain map
// from each key to the position it was last appended at, whether each
// slot holds its key's latest append, and the number of keys whose latest
// position is live.
type refRing struct {
	capacity uint64
	all      []ringEntry
	latest   map[uint64]uint64
	latestAt []bool
	liveKeys int
}

func newRefRing(capacity int) *refRing {
	return &refRing{capacity: uint64(capacity), latest: map[uint64]uint64{}, latestAt: make([]bool, capacity)}
}

func (r *refRing) append(e ringEntry) {
	n := uint64(len(r.all))
	s := n % r.capacity
	if prev, ok := r.latest[e.block]; ok && n-prev <= r.capacity {
		r.latestAt[prev%r.capacity] = false // the key moves to slot s
		r.liveKeys--
	}
	if n >= r.capacity && r.latestAt[s] {
		r.liveKeys-- // the lapped entry's key leaves the ring
	}
	r.latestAt[s] = true
	r.liveKeys++
	r.latest[e.block] = n
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

// indexChecker asserts the index invariant: the index holds exactly one
// mapping per distinct key whose latest position is live, to that
// position's slot, and nothing else. A quick check compares only the
// index's own count of mappings with the live keys; a full one scans it.
type indexChecker struct {
	seen  []uint64 // per slot, the last full check that found it mapped
	check uint64
}

func newIndexChecker(capacity int) *indexChecker {
	return &indexChecker{seen: make([]uint64, capacity)}
}

func (c *indexChecker) verify(t *testing.T, r *Ring[uint64, ringEntry], ref *refRing, full bool) {
	t.Helper()
	n := uint64(len(ref.all))
	if !full {
		if r.keys != ref.liveKeys {
			t.Fatalf("cap=%d after %d appends: index counts %d mappings, %d keys are live",
				ref.capacity, n, r.keys, ref.liveKeys)
		}
		return
	}
	c.check++
	mappings := 0
	for i, v := range r.index {
		if v == 0 {
			continue
		}
		s := uint64(v - 1)
		if s >= uint64(r.Len()) || c.seen[s] == c.check {
			t.Fatalf("cap=%d after %d appends: index entry %d holds slot %d twice or unwritten",
				ref.capacity, n, i, s)
		}
		c.seen[s] = c.check
		mappings++
		if !ref.latestAt[s] {
			t.Fatalf("cap=%d after %d appends: index entry %d maps key %d to slot %d, not its latest append",
				ref.capacity, n, i, r.buf[s].block, s)
		}
	}
	if mappings != ref.liveKeys || mappings != r.keys {
		t.Fatalf("cap=%d after %d appends: index holds %d mappings (counted %d), %d keys are live",
			ref.capacity, n, mappings, r.keys, ref.liveKeys)
	}
}

// Property: under random appends, lookups and positional reads, a Ring
// answers exactly like the reference model — through the entry array's
// first growth, its growth to a non-power-of-two bound, wrap-around, index
// growth, and lookups of keys the ring has lapped — and after every step
// its index holds exactly the keys whose latest position is live.
func TestRingMatchesReference(t *testing.T) {
	for _, tc := range []struct{ capacity, keySpace int }{
		{1, 4}, {3, 8}, {7, 5}, {8, 64}, {300, 200}, {300, 5000},
		{777, 100000}, {1000, 1500}, {3001, 10000}, {4096, 1 << 20},
	} {
		rng := rand.New(rand.NewSource(int64(tc.capacity)*7919 + int64(tc.keySpace)))
		r := newTestRing(tc.capacity)
		ref := newRefRing(tc.capacity)
		index := newIndexChecker(tc.capacity)
		steps := 20*tc.capacity + 5000
		for step := 0; step < steps; step++ {
			k := uint64(rng.Intn(tc.keySpace))
			switch rng.Intn(4) {
			case 0, 1:
				e := ringEntry{block: k, pc: uint64(step)}
				r.Append(e)
				ref.append(e)
				if p, ok := r.Lookup(k); !ok || p != uint64(len(ref.all)-1) {
					t.Fatalf("cap=%d step=%d: Lookup(%d) = (%d,%v) right after appending it", tc.capacity, step, k, p, ok)
				}
			case 2:
				gp, gok := r.Lookup(k)
				rp, rok := ref.lookup(k)
				if gok != rok || gp != rp {
					t.Fatalf("cap=%d space=%d step=%d: Lookup(%d) = (%d,%v), ref (%d,%v)",
						tc.capacity, tc.keySpace, step, k, gp, gok, rp, rok)
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
			// Scanning an index of thousands of entries after every step
			// would dominate the test; above 1024 entries it is scanned
			// every 61st step and its count checked at every other.
			index.verify(t, r, ref, len(r.index) <= 1024 || step%61 == 0 || step == steps-1)
		}
		if len(r.Entries()) != tc.capacity {
			t.Fatalf("cap=%d: entry array is %d long after %d appends", tc.capacity, len(r.Entries()), r.Appends())
		}
		if got, bound := len(r.index), tableSize(tc.capacity); uint64(got) > bound {
			t.Fatalf("cap=%d: index has %d entries, bound %d", tc.capacity, got, bound)
		}
	}
}

// FuzzRingMatchesReference decodes a sequence of Append, Lookup and At
// operations from its input and checks each answer, and the index, against
// refRing: at capacity 1, at a non-power-of-two capacity whose index grows
// once, and at a power of two whose entry array and index both grow. Each
// operation takes two bytes, an opcode byte and an argument byte:
//
//	op%4 == 0  append key arg, one of 256 recurring keys
//	op%4 == 1  look up key arg
//	op%4 == 2  At(appends + 2 - (op>>2)<<8 - arg), reaching behind the tail
//	op%4 == 3  append 4*arg+1 fresh keys in a row, to wrap the ring
func FuzzRingMatchesReference(f *testing.F) {
	f.Add([]byte{0, 7, 0, 7, 1, 7, 2, 0})                                   // a key re-appended over its own slot at capacity 1
	f.Add([]byte{0, 9, 3, 74, 0, 10, 0, 11, 0, 9, 1, 9, 1, 10, 2, 2})       // ... at capacity 300
	f.Add([]byte{0, 9, 3, 127, 0, 10, 0, 11, 0, 9, 1, 9, 1, 10, 1, 11})     // ... at capacity 512
	f.Add([]byte{3, 255, 3, 255, 1, 0, 6, 200, 2, 1, 3, 255, 2, 255, 1, 3}) // long wrap runs
	f.Add([]byte{3, 200, 0, 5, 3, 200, 1, 5, 10, 40, 1, 9})                 // index growth, then a lapped lookup
	f.Fuzz(func(t *testing.T, ops []byte) {
		for _, capacity := range []int{1, 300, 512} {
			r := newTestRing(capacity)
			ref := newRefRing(capacity)
			index := newIndexChecker(capacity)
			fresh := uint64(256)
			appendKey := func(k uint64) {
				e := ringEntry{block: k, pc: uint64(len(ref.all))}
				r.Append(e)
				ref.append(e)
			}
			for i := 0; i+1 < len(ops); i += 2 {
				op, arg := ops[i], uint64(ops[i+1])
				switch op % 4 {
				case 0:
					appendKey(arg)
				case 1:
					gp, gok := r.Lookup(arg)
					if rp, rok := ref.lookup(arg); gok != rok || gp != rp {
						t.Fatalf("cap=%d op %d: Lookup(%d) = (%d,%v), ref (%d,%v)", capacity, i/2, arg, gp, gok, rp, rok)
					}
				case 2:
					back := uint64(op>>2)<<8 | arg
					pos := r.Appends() + 2 - back
					if back > r.Appends()+2 {
						pos = back
					}
					ge, gok := r.At(pos)
					if rok := ref.live(pos); gok != rok || (gok && ge != ref.all[pos]) {
						t.Fatalf("cap=%d op %d: At(%d) = (%v,%v), live=%v", capacity, i/2, pos, ge, gok, rok)
					}
				case 3:
					for j := uint64(0); j <= 4*arg; j++ {
						appendKey(fresh)
						fresh++
					}
				}
				if r.Appends() != uint64(len(ref.all)) {
					t.Fatalf("cap=%d op %d: Appends=%d, ref %d", capacity, i/2, r.Appends(), len(ref.all))
				}
				index.verify(t, r, ref, true)
			}
		}
	})
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
	if got := len(r.index); got > 2048 {
		t.Fatalf("after 1000 distinct keys the index has %d entries", got)
	}
	small := newTestRing(5)
	for i := 0; i < 100; i++ {
		small.Append(ringEntry{block: uint64(i)})
	}
	if got := len(small.Entries()); got != 5 {
		t.Fatalf("capacity-5 ring holds %d entries", got)
	}
}

// A CMOB-sized ring full of distinct keys holds a 2^20-entry uint32 index,
// 4 MB, and it stays that size as the ring laps those keys.
func TestRingIndexSizeAtBound(t *testing.T) {
	const capacity = 384 << 10
	r := newTestRing(capacity)
	for i := 0; i < capacity; i++ {
		r.Append(ringEntry{block: uint64(i) << 6})
	}
	for i := capacity; i < capacity+capacity/2; i++ {
		r.Append(ringEntry{block: uint64(i) << 6})
	}
	if got := len(r.index) * int(unsafe.Sizeof(r.index[0])); len(r.index) != 1<<20 || got != 4<<20 {
		t.Fatalf("index of a full %d-entry ring has %d entries, %d bytes; want 1048576, 4 MB", capacity, len(r.index), got)
	}
	if r.keys != capacity {
		t.Fatalf("index holds %d keys, want %d", r.keys, capacity)
	}
}

// A ring at its bound, wrapped over a key space four times its capacity,
// allocates nothing as it appends and looks up, and its index stays within
// tableSize(capacity).
func TestRingAtBoundZeroAlloc(t *testing.T) {
	for _, capacity := range []int{4096, 3001} {
		rng := rand.New(rand.NewSource(int64(capacity)))
		keys := make([]uint64, 1<<14)
		for i := range keys {
			keys[i] = uint64(rng.Intn(4*capacity)) << 6
		}
		r := newTestRing(capacity)
		for i := 0; i < 4*capacity; i++ {
			r.Append(ringEntry{block: keys[i%len(keys)]})
		}
		next := 0
		got := allocgate.Mallocs(20, func() {
			for j := 0; j < 1000; j++ {
				k := keys[next%len(keys)]
				next++
				if _, ok := r.Lookup(k); !ok || j%3 != 0 {
					r.Append(ringEntry{block: k})
				}
			}
		})
		if got != 0 {
			t.Fatalf("cap=%d: %d allocations in 21000 operations on a ring at its bound", capacity, got)
		}
		if len(r.index) > int(tableSize(capacity)) {
			t.Fatalf("cap=%d: index grew to %d entries, bound %d", capacity, len(r.index), tableSize(capacity))
		}
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

var ringSink uint64

// BenchmarkRing times one TMS-style miss, a Lookup then an Append of the
// same key, on a ring already at its bound, and reports the index's bytes.
//   - distinct-384K: every key new, as Qry17's 384K-entry CMOB sees; every
//     lookup misses and every append laps a key.
//   - recurring-8K, recurring-128K: keys drawn from a space twice the
//     capacity, as an RMOB sees, so lookups hit often and the ring wraps.
func BenchmarkRing(b *testing.B) {
	distinct := func(capacity int) func(i int) uint64 {
		return func(i int) uint64 { return uint64(i) << 6 }
	}
	recurring := func(capacity int) func(i int) uint64 {
		rng := rand.New(rand.NewSource(1))
		keys := make([]uint64, 1<<20)
		for i := range keys {
			keys[i] = uint64(rng.Intn(2*capacity)) << 6
		}
		return func(i int) uint64 { return keys[i&(len(keys)-1)] }
	}
	for _, bc := range []struct {
		name     string
		capacity int
		keys     func(capacity int) func(i int) uint64
	}{
		{"distinct-384K", 384 << 10, distinct},
		{"recurring-8K", 8 << 10, recurring},
		{"recurring-128K", 128 << 10, recurring},
	} {
		b.Run(bc.name, func(b *testing.B) {
			key := bc.keys(bc.capacity)
			r := newTestRing(bc.capacity)
			warm := 2 * bc.capacity
			for i := 0; i < warm; i++ {
				r.Append(ringEntry{block: key(i)})
			}
			b.ResetTimer()
			var sum uint64
			for i := 0; i < b.N; i++ {
				k := key(warm + i)
				p, _ := r.Lookup(k)
				sum += p
				r.Append(ringEntry{block: k})
			}
			ringSink = sum
			b.ReportMetric(float64(ringIndexBytes(r)), "index-B")
		})
	}
}

// ringIndexBytes is the size of r's index.
func ringIndexBytes(r *Ring[uint64, ringEntry]) int {
	return len(r.index) * int(unsafe.Sizeof(r.index[0]))
}
