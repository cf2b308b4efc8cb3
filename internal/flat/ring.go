package flat

import "math/bits"

// Ring is a miss-order ring: the entries most recently appended, up to
// its capacity, each addressed by its absolute append position, plus an
// index from each live key to the slot holding its latest append. TMS's
// CMOB, STeMS's RMOB and the naive hybrid's trigger sequence are Rings;
// the index is what lets a miss find where its address last occurred.
//
// The index holds no keys: its entries are ring slot + 1 (0 is empty) in a
// power-of-two array probed linearly from the Fibonacci hash of the key
// the slot's entry holds, which each probe reads from the ring. An append
// that overwrites a slot first removes the mapping that points there, so
// the index holds exactly the live keys, four bytes per entry.
//
// Storage grows with the run. The entry array starts at ringStart entries
// (or the capacity, if smaller) and doubles up to the capacity as appends
// reach its end; until the ring first wraps, position p lives at slot p,
// so growth is a copy. The index doubles at ½ load from tableSize(ringStart)
// entries; live keys never outnumber the capacity, so it stops at
// tableSize(capacity) and a ring at its bound never allocates.
type Ring[K ~uint64, E any] struct {
	buf      []E
	capacity uint64
	mask     uint64 // capacity-1 when capacity is a power of two, else 0
	appends  uint64
	key      func(E) K

	index  []uint32 // slot+1 of each live key's latest entry; 0 is empty
	ishift uint     // 64 - log2(len(index))
	keys   int      // non-empty index entries
}

// ringStart is a new ring's entry-array length, and its index's key room.
const ringStart = 256

// NewRing creates a ring holding at most capacity entries, indexed by key.
// It panics if a slot + 1 does not fit the index's uint32 entries.
func NewRing[K ~uint64, E any](capacity int, key func(E) K) *Ring[K, E] {
	if capacity <= 0 {
		panic("flat: non-positive ring capacity")
	}
	if uint64(capacity) > 1<<32-1 {
		panic("flat: ring capacity exceeds the uint32 slot index")
	}
	r := &Ring[K, E]{
		buf:      make([]E, min(capacity, ringStart)),
		capacity: uint64(capacity),
		key:      key,
	}
	if capacity&(capacity-1) == 0 {
		r.mask = uint64(capacity - 1)
	}
	r.resizeIndex(tableSize(min(capacity, ringStart)))
	return r
}

// Slot maps an absolute position onto the entry array. The paper's sizes
// are powers of two, where the mask avoids a hardware divide on a path
// taken several times per simulated access.
func (r *Ring[K, E]) Slot(pos uint64) uint64 {
	if r.mask != 0 {
		return pos & r.mask
	}
	return pos % r.capacity
}

// Entries returns the entry array, for loops that read many live positions
// directly: a live position p is at Entries()[Slot(p)]. The slice is valid
// until the next Append.
func (r *Ring[K, E]) Entries() []E { return r.buf }

// Live returns the live position range [lo, hi).
func (r *Ring[K, E]) Live() (lo, hi uint64) {
	if r.appends > r.capacity {
		return r.appends - r.capacity, r.appends
	}
	return 0, r.appends
}

// Append records e at the next position and indexes it as the latest
// occurrence of its key.
func (r *Ring[K, E]) Append(e E) {
	p := r.appends
	if p == uint64(len(r.buf)) && p < r.capacity {
		r.grow()
	}
	s := r.Slot(p)
	if p >= r.capacity {
		r.unmap(s)
	}
	r.buf[s] = e
	k := r.key(e)
	i, ok := r.find(k)
	if !ok {
		if 2*r.keys >= len(r.index) {
			r.resizeIndex(2 * uint64(len(r.index)))
			i, _ = r.find(k)
		}
		r.keys++
	}
	r.index[i] = uint32(s + 1)
	r.appends++
}

// grow doubles the entry array, up to the ring's capacity. It runs only
// before the first wrap, when positions and slots coincide.
func (r *Ring[K, E]) grow() {
	buf := make([]E, min(2*uint64(len(r.buf)), r.capacity))
	copy(buf, r.buf)
	r.buf = buf
}

// home returns k's home index entry.
func (r *Ring[K, E]) home(k K) uint64 { return uint64(k) * fib >> r.ishift }

// find returns the index entry mapping k, or else the empty entry that
// ends k's probe.
func (r *Ring[K, E]) find(k K) (uint64, bool) {
	index, buf, key := r.index, r.buf, r.key
	m := uint64(len(index) - 1)
	i := r.home(k)
	for v := index[i]; v != 0; v = index[i] {
		if key(buf[v-1]) == k {
			return i, true
		}
		i = (i + 1) & m
	}
	return i, false
}

// unmap removes the mapping to slot s, if any, before an append laps it.
// That mapping lies in the probe run of the key s holds (so this runs
// before the write), and no other entry holds s, so slots are compared.
func (r *Ring[K, E]) unmap(s uint64) {
	m := uint64(len(r.index) - 1)
	for i := r.home(r.key(r.buf[s])); r.index[i] != 0; i = (i + 1) & m {
		if r.index[i] == uint32(s+1) {
			r.deleteAt(i)
			return
		}
	}
}

// deleteAt empties index entry i and backward-shifts the probe run after
// it, as U64Table.deleteAt does, homing each entry by its slot's key.
func (r *Ring[K, E]) deleteAt(i uint64) {
	index, buf, key := r.index, r.buf, r.key
	m := uint64(len(index) - 1)
	for j := (i + 1) & m; index[j] != 0; j = (j + 1) & m {
		h := r.home(key(buf[index[j]-1]))
		if (j-h)&m >= (j-i)&m {
			index[i] = index[j]
			i = j
		}
	}
	index[i] = 0
	r.keys--
}

// resizeIndex moves the index to size entries, rehoming every mapping.
func (r *Ring[K, E]) resizeIndex(size uint64) {
	old := r.index
	r.index = make([]uint32, size)
	r.ishift = uint(64 - bits.TrailingZeros64(size))
	for _, v := range old {
		if v != 0 {
			i, _ := r.find(r.key(r.buf[v-1]))
			r.index[i] = v
		}
	}
}

// Lookup returns the latest live position of key.
func (r *Ring[K, E]) Lookup(key K) (uint64, bool) {
	i, ok := r.find(key)
	if !ok {
		return 0, false
	}
	// Live positions fill the slots in order from the oldest one's.
	lo, _ := r.Live()
	return lo + r.Slot(uint64(r.index[i]-1)+r.capacity-r.Slot(lo)), true
}

// At returns the entry at an absolute position; ok is false if the
// position has been overwritten or not yet written.
func (r *Ring[K, E]) At(pos uint64) (e E, ok bool) {
	if pos >= r.appends || r.appends-pos > r.capacity {
		return e, false
	}
	return r.buf[r.Slot(pos)], true
}

// Appends returns the total number of entries ever appended.
func (r *Ring[K, E]) Appends() uint64 { return r.appends }

// Len returns the number of live entries.
func (r *Ring[K, E]) Len() int { return int(min(r.appends, r.capacity)) }
