package flat

// Ring is a miss-order ring: the entries most recently appended, up to
// its capacity, each addressed by its absolute append position, plus an
// index from each entry's key to the latest position that key was
// appended at. TMS's CMOB, STeMS's RMOB and the naive hybrid's trigger
// sequence are Rings; the index is what lets a miss find where its address
// last occurred.
//
// Storage grows with the run. The entry array starts at ringStart entries
// (or the capacity, if smaller) and doubles up to the capacity as appends
// reach its end; until the ring first wraps, position p lives at index p,
// so growth is a copy. The index starts small and doubles as keys arrive,
// up to room for 1.25×capacity keys at ½ load. Beyond that, a full index
// is rebuilt from the live entries instead, shedding every key the ring
// has lapped — an O(capacity) sweep amortized over at least a quarter-ring
// of appends — so a ring at its bound never allocates.
//
// Lookups do not depend on when growth or rebuilds happen. The index maps
// each key to its latest append, and that position still holds the key
// unless the ring has lapped it, which Lookup detects by position alone.
type Ring[K ~uint64, E any] struct {
	buf      []E
	capacity uint64
	mask     uint64 // capacity-1 when capacity is a power of two, else 0
	appends  uint64
	key      func(E) K
	index    *U64Table[uint64]
	indexCap int // index Cap at which a full index is rebuilt, not grown

	staleLookups uint64
	reindexes    uint64
}

// ringStart is a new ring's entry-array length, and its index's key room.
const ringStart = 256

// NewRing creates a ring holding at most capacity entries, indexed by key.
func NewRing[K ~uint64, E any](capacity int, key func(E) K) *Ring[K, E] {
	if capacity <= 0 {
		panic("flat: non-positive ring capacity")
	}
	r := &Ring[K, E]{
		buf:      make([]E, min(capacity, ringStart)),
		capacity: uint64(capacity),
		key:      key,
		index:    NewU64Table[uint64](min(capacity, ringStart)),
		// Live keys never exceed the ring size, so every rebuild frees at
		// least a quarter-ring of insert room.
		indexCap: int(tableSize(capacity+capacity/4) / 2),
	}
	if capacity&(capacity-1) == 0 {
		r.mask = uint64(capacity - 1)
	}
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
	r.buf[r.Slot(p)] = e
	if r.index.Full() && r.index.Cap() >= r.indexCap {
		r.reindex()
	}
	r.index.Put(uint64(r.key(e)), p)
	r.appends++
}

// grow doubles the entry array, up to the ring's capacity. It runs only
// before the first wrap, when positions and indexes coincide.
func (r *Ring[K, E]) grow() {
	buf := make([]E, min(2*uint64(len(r.buf)), r.capacity))
	copy(buf, r.buf)
	r.buf = buf
}

// reindex rebuilds the index from the live entries, shedding every key the
// ring has lapped. Live entries number at most the capacity, below the
// index's room, so the rebuilt index is never full.
func (r *Ring[K, E]) reindex() {
	r.index.Clear()
	lo, hi := r.Live()
	for p := lo; p < hi; p++ {
		// Later positions overwrite earlier ones, leaving each key mapped
		// to its latest live occurrence.
		r.index.Put(uint64(r.key(r.buf[r.Slot(p)])), p)
	}
	r.reindexes++
}

// Lookup returns the latest live position of key. A mapping the ring has
// lapped is discarded and counted.
func (r *Ring[K, E]) Lookup(key K) (uint64, bool) {
	pos, ok := r.index.Get(uint64(key))
	if !ok {
		return 0, false
	}
	if r.appends-pos > r.capacity {
		r.staleLookups++
		r.index.Delete(uint64(key))
		return 0, false
	}
	return pos, true
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

// StaleLookups returns the number of lapped index mappings Lookup found.
func (r *Ring[K, E]) StaleLookups() uint64 { return r.staleLookups }

// Reindexes returns the number of index rebuilds.
func (r *Ring[K, E]) Reindexes() uint64 { return r.reindexes }
