package lru

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPutGet(t *testing.T) {
	m := NewU64[int](2)
	m.Put(1, 1)
	m.Put(2, 2)
	if v, ok := m.Get(1); !ok || v != 1 {
		t.Fatalf("Get(1) = %d,%v", v, ok)
	}
	if _, ok := m.Get(3); ok {
		t.Fatal("Get of absent key succeeded")
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d", m.Len())
	}
}

func TestEvictionOrder(t *testing.T) {
	m := NewU64[int](2)
	m.Put(1, 10)
	m.Put(2, 20)
	m.Get(1) // 2 is now LRU
	k, v, ev := m.Put(3, 30)
	if !ev || k != 2 || v != 20 {
		t.Fatalf("evicted (%d,%d,%v), want (2,20,true)", k, v, ev)
	}
	if _, ok := m.Peek(2); ok {
		t.Fatal("evicted key still present")
	}
}

func TestPeekDoesNotRefresh(t *testing.T) {
	m := NewU64[int](2)
	m.Put(1, 10)
	m.Put(2, 20)
	m.Peek(1) // must NOT refresh; 1 stays LRU
	k, _, ev := m.Put(3, 30)
	if !ev || k != 1 {
		t.Fatalf("evicted %d, want 1", k)
	}
}

func TestPutUpdateRefreshes(t *testing.T) {
	m := NewU64[int](2)
	m.Put(1, 10)
	m.Put(2, 20)
	m.Put(1, 11) // refresh 1; 2 becomes LRU
	k, _, ev := m.Put(3, 30)
	if !ev || k != 2 {
		t.Fatalf("evicted %d, want 2", k)
	}
	if v, _ := m.Get(1); v != 11 {
		t.Fatalf("updated value = %d, want 11", v)
	}
}

func TestDelete(t *testing.T) {
	m := NewU64[int](4)
	m.Put(1, 10)
	if !m.Delete(1) {
		t.Fatal("Delete of present key failed")
	}
	if m.Delete(1) {
		t.Fatal("Delete of absent key succeeded")
	}
	if m.Len() != 0 {
		t.Fatalf("Len after delete = %d", m.Len())
	}
	// The freed slot is reusable without eviction.
	m.Put(2, 20)
	m.Put(3, 30)
	m.Put(4, 40)
	m.Put(5, 50)
	if m.Len() != 4 {
		t.Fatalf("Len = %d, want 4", m.Len())
	}
}

func TestEach(t *testing.T) {
	m := NewU64[int](3)
	m.Put(1, 10)
	m.Put(2, 20)
	m.Put(3, 30)
	m.Get(1) // MRU order: 1, 3, 2
	var keys []uint64
	m.Each(func(k uint64, v int) bool {
		keys = append(keys, k)
		return true
	})
	want := []uint64{1, 3, 2}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("Each order = %v, want %v", keys, want)
		}
	}
	// Early termination.
	n := 0
	m.Each(func(k uint64, v int) bool { n++; return false })
	if n != 1 {
		t.Fatalf("Each early-stop visited %d", n)
	}
}

func TestLRUKey(t *testing.T) {
	m := NewU64[int](3)
	if _, ok := m.LRUKey(); ok {
		t.Fatal("LRUKey on empty map")
	}
	m.Put(1, 1)
	m.Put(2, 2)
	if k, ok := m.LRUKey(); !ok || k != 1 {
		t.Fatalf("LRUKey = %d,%v", k, ok)
	}
}

func TestNewPanicsOnZeroCap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewU64(0) did not panic")
		}
	}()
	NewU64[int](0)
}

// Property: the map never exceeds capacity and behaves identically to a
// reference model under a random workload.
func TestMatchesReferenceModel(t *testing.T) {
	const capacity = 8
	m := NewU64[int](capacity)
	type refEnt struct{ k, v int }
	var ref []refEnt // front = LRU
	refGet := func(k int) (int, bool) {
		for i, e := range ref {
			if e.k == k {
				ref = append(append(ref[:i:i], ref[i+1:]...), e)
				return e.v, true
			}
		}
		return 0, false
	}
	refPut := func(k, v int) {
		for i, e := range ref {
			if e.k == k {
				ref = append(append(ref[:i:i], ref[i+1:]...), refEnt{k, v})
				return
			}
		}
		if len(ref) == capacity {
			ref = ref[1:]
		}
		ref = append(ref, refEnt{k, v})
	}
	refDel := func(k int) bool {
		for i, e := range ref {
			if e.k == k {
				ref = append(ref[:i:i], ref[i+1:]...)
				return true
			}
		}
		return false
	}

	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 20000; step++ {
		k := rng.Intn(16)
		switch rng.Intn(3) {
		case 0:
			m.Put(uint64(k), step)
			refPut(k, step)
		case 1:
			gv, gok := m.Get(uint64(k))
			rv, rok := refGet(k)
			if gok != rok || (gok && gv != rv) {
				t.Fatalf("step %d: Get(%d) = (%d,%v), ref (%d,%v)", step, k, gv, gok, rv, rok)
			}
		case 2:
			if m.Delete(uint64(k)) != refDel(k) {
				t.Fatalf("step %d: Delete(%d) mismatch", step, k)
			}
		}
		if m.Len() != len(ref) || m.Len() > capacity {
			t.Fatalf("step %d: Len=%d ref=%d", step, m.Len(), len(ref))
		}
	}
}

// Property: after any sequence of Puts of distinct keys beyond capacity,
// exactly the most recent `capacity` keys survive.
func TestRetainsMostRecent(t *testing.T) {
	f := func(keys []int16) bool {
		m := NewU64[int](4)
		seen := make(map[int16]bool)
		var order []int16 // distinct keys in put order
		for _, k := range keys {
			if !seen[k] {
				seen[k] = true
				order = append(order, k)
			}
			m.Put(uint64(uint16(k)), 0)
		}
		// This property needs each key put exactly once; restrict input.
		if len(order) != len(keys) {
			return true // skip inputs with duplicates
		}
		start := 0
		if len(order) > 4 {
			start = len(order) - 4
		}
		for _, k := range order[start:] {
			if _, ok := m.Peek(uint64(uint16(k))); !ok {
				return false
			}
		}
		return m.Len() <= 4
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// refLRU is a deliberately naive reference implementation: a Go map plus a
// recency-ordered slice. The open-addressed index inside U64Map must be
// observationally indistinguishable from it.
type refLRU struct {
	capacity int
	vals     map[int]int
	order    []int // front = LRU, back = MRU
}

func newRefLRU(capacity int) *refLRU {
	return &refLRU{capacity: capacity, vals: map[int]int{}}
}

func (r *refLRU) touch(k int) {
	for i, kk := range r.order {
		if kk == k {
			r.order = append(append(r.order[:i:i], r.order[i+1:]...), k)
			return
		}
	}
}

func (r *refLRU) get(k int) (int, bool) {
	v, ok := r.vals[k]
	if ok {
		r.touch(k)
	}
	return v, ok
}

func (r *refLRU) peek(k int) (int, bool) {
	v, ok := r.vals[k]
	return v, ok
}

func (r *refLRU) put(k, v int) (int, int, bool) {
	if _, ok := r.vals[k]; ok {
		r.vals[k] = v
		r.touch(k)
		return 0, 0, false
	}
	var ek, ev int
	evicted := false
	if len(r.vals) == r.capacity {
		ek = r.order[0]
		ev = r.vals[ek]
		evicted = true
		delete(r.vals, ek)
		r.order = r.order[1:]
	}
	r.vals[k] = v
	r.order = append(r.order, k)
	return ek, ev, evicted
}

func (r *refLRU) del(k int) bool {
	if _, ok := r.vals[k]; !ok {
		return false
	}
	delete(r.vals, k)
	for i, kk := range r.order {
		if kk == k {
			r.order = append(r.order[:i:i], r.order[i+1:]...)
			break
		}
	}
	return true
}

// Property: under randomized Get/Peek/Put/Delete sequences — at several
// capacities and key-space densities — the open-addressed U64Map agrees
// with the reference on every return value, on eviction victims, on LRUKey,
// and on full MRU-to-LRU iteration order. This is the regression net for
// the probe table's backward-shift deletion and for growth: every capacity
// above the starting room doubles its entries and index mid-run.
func TestPropertyMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		capacity, keySpace int
	}{
		{1, 4}, {2, 8}, {7, 16}, {8, 8}, {64, 48}, {64, 256}, {257, 1024}, {1000, 3000},
	} {
		rng := rand.New(rand.NewSource(int64(tc.capacity*100000 + tc.keySpace)))
		m := NewU64[int](tc.capacity)
		ref := newRefLRU(tc.capacity)
		for step := 0; step < 30000; step++ {
			k := rng.Intn(tc.keySpace)
			switch rng.Intn(5) {
			case 0, 1:
				gek, gev, gevicted := m.Put(uint64(k), step)
				rek, rev, revicted := ref.put(k, step)
				if gevicted != revicted || (gevicted && (gek != uint64(rek) || gev != rev)) {
					t.Fatalf("cap=%d space=%d step=%d: Put(%d) evicted (%d,%d,%v), ref (%d,%d,%v)",
						tc.capacity, tc.keySpace, step, k, gek, gev, gevicted, rek, rev, revicted)
				}
			case 2:
				gv, gok := m.Get(uint64(k))
				rv, rok := ref.get(k)
				if gok != rok || (gok && gv != rv) {
					t.Fatalf("cap=%d space=%d step=%d: Get(%d) = (%d,%v), ref (%d,%v)",
						tc.capacity, tc.keySpace, step, k, gv, gok, rv, rok)
				}
			case 3:
				gv, gok := m.Peek(uint64(k))
				rv, rok := ref.peek(k)
				if gok != rok || (gok && gv != rv) {
					t.Fatalf("cap=%d space=%d step=%d: Peek(%d) mismatch", tc.capacity, tc.keySpace, step, k)
				}
			case 4:
				if m.Delete(uint64(k)) != ref.del(k) {
					t.Fatalf("cap=%d space=%d step=%d: Delete(%d) mismatch", tc.capacity, tc.keySpace, step, k)
				}
			}
			if m.Len() != len(ref.vals) {
				t.Fatalf("cap=%d space=%d step=%d: Len=%d ref=%d",
					tc.capacity, tc.keySpace, step, m.Len(), len(ref.vals))
			}
			if lk, lok := m.LRUKey(); len(ref.order) == 0 {
				if lok {
					t.Fatalf("cap=%d space=%d step=%d: LRUKey on empty", tc.capacity, tc.keySpace, step)
				}
			} else if !lok || lk != uint64(ref.order[0]) {
				t.Fatalf("cap=%d space=%d step=%d: LRUKey=%d,%v ref=%d",
					tc.capacity, tc.keySpace, step, lk, lok, ref.order[0])
			}
			if step%1000 == 0 { // full-order audit, amortized
				var got []int
				m.Each(func(k uint64, v int) bool { got = append(got, int(k)); return true })
				if len(got) != len(ref.order) {
					t.Fatalf("cap=%d space=%d step=%d: Each len=%d ref=%d",
						tc.capacity, tc.keySpace, step, len(got), len(ref.order))
				}
				for i := range got {
					if got[i] != ref.order[len(ref.order)-1-i] {
						t.Fatalf("cap=%d space=%d step=%d: Each order %v, ref (rev) %v",
							tc.capacity, tc.keySpace, step, got, ref.order)
					}
				}
			}
		}
	}
}

// Property: GetRef answers exactly like Get — same value, same recency
// effect — and writing through its pointer is exactly a Put of the new
// value, the single-probe read-modify-write path SMS's accumulation table
// and the stride table take on every access.
func TestGetRefMatchesReference(t *testing.T) {
	for _, capacity := range []int{1, 3, 8, 64, 100} {
		m := NewU64[int](capacity)
		ref := newRefLRU(capacity)
		rng := rand.New(rand.NewSource(int64(capacity)))
		for step := 0; step < 30000; step++ {
			k := rng.Intn(3 * capacity)
			switch rng.Intn(5) {
			case 0, 1:
				m.Put(uint64(k), step)
				ref.put(k, step)
			case 2:
				gv, gok := m.GetRef(uint64(k))
				rv, rok := ref.get(k)
				if gok != rok || (gok && *gv != rv) {
					t.Fatalf("cap=%d step=%d: GetRef(%d) differs", capacity, step, k)
				}
			case 3:
				gv, gok := m.GetRef(uint64(k))
				if _, rok := ref.get(k); gok != rok {
					t.Fatalf("cap=%d step=%d: GetRef(%d) presence differs", capacity, step, k)
				}
				if gok {
					*gv = -step
					ref.put(k, -step)
				}
			case 4:
				if m.Delete(uint64(k)) != ref.del(k) {
					t.Fatalf("cap=%d step=%d: Delete(%d) differs", capacity, step, k)
				}
			}
			if m.Len() != len(ref.vals) {
				t.Fatalf("cap=%d step=%d: Len differs %d vs %d", capacity, step, m.Len(), len(ref.vals))
			}
		}
		var got []int
		m.Each(func(k uint64, v int) bool {
			if rv := ref.vals[int(k)]; rv != v {
				t.Fatalf("cap=%d: key %d holds %d, ref %d", capacity, k, v, rv)
			}
			got = append(got, int(k))
			return true
		})
		if len(got) != len(ref.order) {
			t.Fatalf("cap=%d: Each lengths differ", capacity)
		}
		for i := range got {
			if got[i] != ref.order[len(ref.order)-1-i] {
				t.Fatalf("cap=%d: Each order %v, ref (rev) %v", capacity, got, ref.order)
			}
		}
	}
}
