// Package lru provides a bounded map with least-recently-used replacement.
// It models the set-associative, LRU-replaced predictor tables of the paper
// (PHT, PST, AGT, stride RPT, epoch correlation table) without simulating
// banking: a fully-associative LRU table of N entries is a slightly
// generous stand-in for an N-entry set-associative one, which only
// strengthens the baseline predictors STeMS is compared against.
//
// The map is built for the simulator's replay loop. Keys are uint64 —
// addresses, regions, or (PC, offset) lookup indexes packed into one word
// — so the key index is a monomorphic open-addressed probe table
// (flat.U64Table) whose probe path, hash included, inlines. Entries live in
// one array linked by index, never by pointer. The capacity is a bound,
// not an allocation: the entry array and the index start small and double
// as a run inserts, up to the capacity, and once there Get/Put/Delete
// perform no allocations.
package lru

import "stems/internal/flat"

// entry is a node of the intrusive recency list. Deleted nodes are chained
// through next into the free list.
type entry[V any] struct {
	key        uint64
	val        V
	prev, next int32 // indices into U64Map.entries; -1 terminates
}

// U64Map is an LRU map from uint64 keys to values, holding at most its
// capacity. The zero value is not usable; call NewU64. Not safe for
// concurrent use.
type U64Map[V any] struct {
	capacity int
	index    *flat.U64Table[int32]
	entries  []entry[V]
	head     int32 // most recently used
	tail     int32 // least recently used
	free     int32 // head of the deleted-node chain
}

// mapStart is the entry room and index room of a new map.
const mapStart = 64

// NewU64 creates a map holding at most capacity entries; capacity must be
// positive and below 2^31.
func NewU64[V any](capacity int) *U64Map[V] {
	if capacity <= 0 || capacity > 1<<31-1 {
		panic("lru: capacity out of range")
	}
	return &U64Map[V]{
		capacity: capacity,
		index:    flat.NewU64Table[int32](min(capacity, mapStart)),
		entries:  make([]entry[V], 0, min(capacity, mapStart)),
		head:     -1,
		tail:     -1,
		free:     -1,
	}
}

// Len returns the current number of entries.
func (m *U64Map[V]) Len() int { return m.index.Len() }

// Cap returns the capacity.
func (m *U64Map[V]) Cap() int { return m.capacity }

func (m *U64Map[V]) unlink(i int32) {
	e := &m.entries[i]
	if e.prev >= 0 {
		m.entries[e.prev].next = e.next
	} else {
		m.head = e.next
	}
	if e.next >= 0 {
		m.entries[e.next].prev = e.prev
	} else {
		m.tail = e.prev
	}
	e.prev, e.next = -1, -1
}

func (m *U64Map[V]) pushFront(i int32) {
	e := &m.entries[i]
	e.prev = -1
	e.next = m.head
	if m.head >= 0 {
		m.entries[m.head].prev = i
	}
	m.head = i
	if m.tail < 0 {
		m.tail = i
	}
}

// Get returns the value for k and refreshes its recency.
func (m *U64Map[V]) Get(k uint64) (V, bool) {
	i, ok := m.index.Get(k)
	if !ok {
		var zero V
		return zero, false
	}
	m.touch(i)
	return m.entries[i].val, true
}

// GetRef is Get returning a pointer into the map's entry storage instead
// of copying the value: the read path for large values (the PST's inline
// pattern entries) and the single-probe read-modify-write path (writing
// through the pointer is exactly Get followed by Put of the new value).
// The pointer is valid only until the next Put or Delete, which may
// displace or move the entry.
func (m *U64Map[V]) GetRef(k uint64) (*V, bool) {
	i, ok := m.index.Get(k)
	if !ok {
		return nil, false
	}
	m.touch(i)
	return &m.entries[i].val, true
}

// Find returns the internal node index for k without refreshing recency
// or copying the value. Together with Touch and RefAt it is the batch
// probe path: a caller resolving many keys can separate the index probes
// from the recency updates while preserving the exact Get semantics —
// Find+Touch+RefAt in key order leaves the map byte-identical to a
// GetRef per key. Node indexes are stable until the next Put or Delete.
func (m *U64Map[V]) Find(k uint64) (int, bool) {
	i, ok := m.index.Get(k)
	return int(i), ok
}

// Touch refreshes the recency of the node index i returned by Find,
// exactly as Get would for its key.
func (m *U64Map[V]) Touch(i int) { m.touch(int32(i)) }

func (m *U64Map[V]) touch(i int32) {
	if m.head != i {
		m.unlink(i)
		m.pushFront(i)
	}
}

// RefAt returns a pointer to the value stored at node index i. Like
// GetRef, the pointer is valid only until the next Put or Delete.
func (m *U64Map[V]) RefAt(i int) *V { return &m.entries[i].val }

// Peek returns the value for k without refreshing recency.
func (m *U64Map[V]) Peek(k uint64) (V, bool) {
	i, ok := m.index.Get(k)
	if !ok {
		var zero V
		return zero, false
	}
	return m.entries[i].val, true
}

// Put inserts or updates k, refreshing recency. If the insertion displaces
// the LRU entry, Put returns that entry's key and value with evicted=true.
func (m *U64Map[V]) Put(k uint64, v V) (evictedK uint64, evictedV V, evicted bool) {
	if i, ok := m.index.Get(k); ok {
		m.entries[i].val = v
		m.touch(i)
		return
	}
	var slot int32
	switch {
	case m.free >= 0:
		slot = m.free
		m.free = m.entries[slot].next
	case len(m.entries) < m.capacity:
		if len(m.entries) == cap(m.entries) {
			m.grow()
		}
		m.entries = m.entries[:len(m.entries)+1]
		slot = int32(len(m.entries) - 1)
	default:
		// Evict the LRU entry and reuse its node.
		slot = m.tail
		victim := &m.entries[slot]
		evictedK, evictedV, evicted = victim.key, victim.val, true
		m.index.Delete(victim.key)
		m.unlink(slot)
	}
	m.entries[slot] = entry[V]{key: k, val: v, prev: -1, next: -1}
	m.index.Put(k, slot)
	m.pushFront(slot)
	return
}

// grow doubles the entry array's room, up to the capacity.
func (m *U64Map[V]) grow() {
	entries := make([]entry[V], len(m.entries), min(2*cap(m.entries), m.capacity))
	copy(entries, m.entries)
	m.entries = entries
}

// Delete removes k, reporting whether it was present.
func (m *U64Map[V]) Delete(k uint64) bool {
	i, ok := m.index.Get(k)
	if !ok {
		return false
	}
	m.unlink(i)
	m.index.Delete(k)
	m.entries[i].next = m.free
	m.free = i
	return true
}

// Each calls fn for every entry in MRU-to-LRU order; if fn returns false
// iteration stops. Mutating the map inside fn is not allowed.
func (m *U64Map[V]) Each(fn func(k uint64, v V) bool) {
	for i := m.head; i >= 0; i = m.entries[i].next {
		if !fn(m.entries[i].key, m.entries[i].val) {
			return
		}
	}
}

// LRUKey returns the least-recently-used key, if any.
func (m *U64Map[V]) LRUKey() (uint64, bool) {
	if m.tail < 0 {
		return 0, false
	}
	return m.entries[m.tail].key, true
}
