package flat

import (
	"math/rand"
	"testing"
)

func TestPutGetDelete(t *testing.T) {
	tb := NewU64Table[int](8)
	if _, ok := tb.Get(1); ok {
		t.Fatal("Get on empty table succeeded")
	}
	tb.Put(1, 10)
	tb.Put(2, 20)
	tb.Put(1, 11) // update
	if v, ok := tb.Get(1); !ok || v != 11 {
		t.Fatalf("Get(1) = %d,%v", v, ok)
	}
	if tb.Len() != 2 {
		t.Fatalf("Len = %d", tb.Len())
	}
	if !tb.Delete(1) || tb.Delete(1) {
		t.Fatal("Delete semantics wrong")
	}
	if tb.Has(1) || !tb.Has(2) {
		t.Fatal("Has wrong after delete")
	}
}

func TestGrowBeyondCapacity(t *testing.T) {
	tb := NewU64Table[int](4)
	for i := 0; i < 1000; i++ {
		tb.Put(uint64(i), i*3)
	}
	if tb.Len() != 1000 {
		t.Fatalf("Len = %d", tb.Len())
	}
	for i := 0; i < 1000; i++ {
		if v, ok := tb.Get(uint64(i)); !ok || v != i*3 {
			t.Fatalf("Get(%d) = %d,%v after grow", i, v, ok)
		}
	}
}

func TestClear(t *testing.T) {
	tb := NewU64Table[int](16)
	for i := 0; i < 16; i++ {
		tb.Put(uint64(i), i)
	}
	tb.Clear()
	if tb.Len() != 0 {
		t.Fatalf("Len after Clear = %d", tb.Len())
	}
	for i := 0; i < 16; i++ {
		if tb.Has(uint64(i)) {
			t.Fatalf("key %d survived Clear", i)
		}
	}
	tb.Put(3, 33)
	if v, _ := tb.Get(3); v != 33 {
		t.Fatal("table unusable after Clear")
	}
}

// The backward-shift deletion is the subtle part of open addressing: drive
// the table through a dense random workload in a small key space (maximal
// probe-run collisions) and require exact agreement with a Go map.
func TestMatchesMapReference(t *testing.T) {
	for _, keySpace := range []int{8, 64, 4096} {
		tb := NewU64Table[int](32)
		ref := map[uint64]int{}
		rng := rand.New(rand.NewSource(int64(keySpace)))
		for step := 0; step < 50000; step++ {
			k := uint64(rng.Intn(keySpace))
			switch rng.Intn(4) {
			case 0, 1:
				tb.Put(k, step)
				ref[k] = step
			case 2:
				gv, gok := tb.Get(k)
				rv, rok := ref[k]
				if gok != rok || gv != rv {
					t.Fatalf("space %d step %d: Get(%d) = (%d,%v), ref (%d,%v)",
						keySpace, step, k, gv, gok, rv, rok)
				}
			case 3:
				_, rok := ref[k]
				delete(ref, k)
				if tb.Delete(k) != rok {
					t.Fatalf("space %d step %d: Delete(%d) mismatch", keySpace, step, k)
				}
			}
			if tb.Len() != len(ref) {
				t.Fatalf("space %d step %d: Len=%d ref=%d", keySpace, step, tb.Len(), len(ref))
			}
		}
		// Full sweep: every surviving key must be reachable.
		for k, rv := range ref {
			if gv, ok := tb.Get(k); !ok || gv != rv {
				t.Fatalf("space %d final: Get(%d) = (%d,%v), ref %d", keySpace, k, gv, ok, rv)
			}
		}
	}
}

// Struct lookup indexes — a trigger PC and its region offset — key the
// table packed into one word, PC above the 5 offset bits, as sms.Key and
// core.Key pack them. Keys differing in either field must stay distinct.
func TestStructKeys(t *testing.T) {
	type key struct {
		PC     uint64
		Offset int
	}
	pack := func(k key) uint64 { return k.PC<<5 | uint64(k.Offset&31) }
	tb := NewU64Table[string](8)
	tb.Put(pack(key{1, 2}), "a")
	tb.Put(pack(key{1, 3}), "b")
	tb.Put(pack(key{2, 2}), "c")
	if v, ok := tb.Get(pack(key{1, 2})); !ok || v != "a" {
		t.Fatalf("struct key Get = %q,%v", v, ok)
	}
	if !tb.Delete(pack(key{1, 3})) || tb.Has(pack(key{1, 3})) {
		t.Fatal("struct key Delete failed")
	}
	if v, ok := tb.Get(pack(key{2, 2})); !ok || v != "c" {
		t.Fatalf("struct key with the same offset, other PC = %q,%v", v, ok)
	}
}
