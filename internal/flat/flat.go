// Package flat provides the simulator's uint64-keyed table family: U64Table,
// a compact open-addressed hash table used on the hottest paths in place of
// Go's built-in map, and Ring, the miss-order ring that TMS's CMOB, STeMS's
// RMOB and the naive hybrid's trigger sequence share. The replay loop
// performs several table operations per simulated access (LRU predictor
// tables, the ring indexes, SVB residency, reconstruction dedup); Go maps
// hash through an interface, allocate buckets on growth, and defeat
// prefetching with pointer-chased overflow cells. U64Table instead keys one
// flat slot array, homes each key by one multiply and one shift, and
// resolves collisions with linear probing and backward-shift deletion —
// the index-linked contiguous layout that parHSOM-style flattening uses to
// make pointer structures hardware-friendly. A Ring's index goes one step
// further: its entries are uint32 slots of the ring, which holds the keys.
//
// Tables are sized by what a run holds. A predictor's configured capacity
// (a §4.3 hardware size such as the 384K-entry CMOB) is a bound, not an
// allocation: rings, their indexes and the LRU maps built on U64Table
// start small and double as a run inserts, up to that bound. A short run
// allocates only what it touches; a long one reaches the bound during
// warm-up, after which the steady state allocates nothing. Growth never
// changes behaviour — every lookup answers exactly as a table allocated
// at full size would.
package flat

import "math/bits"

// fib is 2^64 divided by the golden ratio, rounded to odd: the multiplier
// of Fibonacci hashing.
const fib = 0x9E3779B97F4A7C15

// U64Table is an open-addressed hash table keyed by uint64 (block
// addresses, region bases, PCs, packed lookup indexes). A key's home slot is
// its Fibonacci hash, the top bits of k*fib: one multiply and one shift,
// compiled into the probe loops. The product's top bits depend on every
// key bit at or below them, so keys that differ only above their low
// zero bits — block addresses, 2 KB region bases — still spread over the
// table. Key and value are interleaved in one slot array so a probe
// touches a single cache line, and occupancy is a bitset small enough to
// live in L1; the replay loop's hottest tables (the reconstruction dedup
// set, the SVB index, the LRU-map indexes) perform tens of probes per
// simulated access. Occupancy is tracked outside the slots, so every key
// value (including 0) is valid. Not safe for concurrent use.
type U64Table[V any] struct {
	slots []u64slot[V]
	used  []uint64 // occupancy bitset, one bit per slot
	mask  uint64
	shift uint // 64 - log2(len(slots))
	n     int
}

type u64slot[V any] struct {
	key uint64
	val V
}

// NewU64Table creates a table holding up to capacity live keys without
// growing: the probe array is the next power of two (at least 64) at or
// above twice the capacity, bounding the load factor at 1/2. Inserting
// beyond Cap doubles the array, so a table created small grows with its
// contents.
func NewU64Table[V any](capacity int) *U64Table[V] {
	size := tableSize(capacity)
	return &U64Table[V]{
		slots: make([]u64slot[V], size),
		used:  make([]uint64, size/64),
		mask:  size - 1,
		shift: uint(64 - bits.TrailingZeros64(size)),
	}
}

// home returns k's home slot.
func (t *U64Table[V]) home(k uint64) uint64 { return k * fib >> t.shift }

// Len returns the number of live keys.
func (t *U64Table[V]) Len() int { return t.n }

// Cap returns the number of live keys held before Put grows the table.
func (t *U64Table[V]) Cap() int { return int((t.mask + 1) / 2) }

// Full reports whether the next insert of a new key would grow the table.
func (t *U64Table[V]) Full() bool { return t.n >= t.Cap() }

// tableSize is the probe-array size NewU64Table uses for capacity keys.
func tableSize(capacity int) uint64 {
	size := uint64(64)
	for size < 2*uint64(max(capacity, 1)) {
		size <<= 1
	}
	return size
}

func (t *U64Table[V]) isUsed(i uint64) bool {
	return t.used[i>>6]&(1<<(i&63)) != 0
}

func (t *U64Table[V]) setUsed(i uint64)   { t.used[i>>6] |= 1 << (i & 63) }
func (t *U64Table[V]) clearUsed(i uint64) { t.used[i>>6] &^= 1 << (i & 63) }

// Get returns the value stored for k.
func (t *U64Table[V]) Get(k uint64) (V, bool) {
	for i := t.home(k); t.isUsed(i); i = (i + 1) & t.mask {
		if t.slots[i].key == k {
			return t.slots[i].val, true
		}
	}
	var zero V
	return zero, false
}

// Has reports whether k is present.
func (t *U64Table[V]) Has(k uint64) bool {
	_, ok := t.Get(k)
	return ok
}

// Put inserts or updates k. Inserting a new key into a full table doubles
// the probe array (an allocation).
func (t *U64Table[V]) Put(k uint64, v V) { *t.Ref(k) = v }

// Ref returns a pointer to k's value, inserting a zero value first if k is
// absent — one probe for the upsert-and-update pattern. The pointer is
// valid until the next insert (growth or backward-shift may move values).
func (t *U64Table[V]) Ref(k uint64) *V {
	i := t.home(k)
	for t.isUsed(i) {
		if t.slots[i].key == k {
			return &t.slots[i].val
		}
		i = (i + 1) & t.mask
	}
	if t.Full() {
		t.grow()
		i = t.home(k)
		for t.isUsed(i) {
			i = (i + 1) & t.mask
		}
	}
	var zero V
	t.slots[i] = u64slot[V]{key: k, val: zero}
	t.setUsed(i)
	t.n++
	return &t.slots[i].val
}

// Delete removes k, reporting whether it was present. Removal backward-
// shifts the displaced run, so the table never accumulates tombstones.
func (t *U64Table[V]) Delete(k uint64) bool {
	for i := t.home(k); t.isUsed(i); i = (i + 1) & t.mask {
		if t.slots[i].key == k {
			t.deleteAt(i)
			return true
		}
	}
	return false
}

// deleteAt empties slot i and compacts the probe run that follows it: any
// entry whose home position is cyclically at or before the hole slides
// back, preserving the invariant that every key is reachable from its home
// slot through occupied slots only.
func (t *U64Table[V]) deleteAt(i uint64) {
	j := i
	for {
		j = (j + 1) & t.mask
		if !t.isUsed(j) {
			break
		}
		h := t.home(t.slots[j].key)
		// The entry at j may fill the hole at i iff its home precedes or
		// equals i in cyclic probe order: (j-h) mod size >= (j-i) mod size.
		if (j-h)&t.mask >= (j-i)&t.mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	var zero u64slot[V]
	t.slots[i] = zero
	t.clearUsed(i)
	t.n--
}

// Reset removes every key without releasing storage, by clearing
// occupancy only: stale keys and values stay in the slot array but are
// unreachable (every probe gate checks the occupancy bitset first), and
// the bitset is 1/512th of the slot storage. Values holding pointers keep
// their referents alive until overwritten.
func (t *U64Table[V]) Reset() {
	clear(t.used)
	t.n = 0
}

// grow doubles the probe array and rehashes every live entry.
func (t *U64Table[V]) grow() {
	old := *t
	*t = *NewU64Table[V](len(old.slots))
	for i, s := range old.slots {
		if old.isUsed(uint64(i)) {
			t.Put(s.key, s.val)
		}
	}
}
