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
	tb.Reset()
	if tb.Len() != 0 {
		t.Fatalf("Len after Reset = %d", tb.Len())
	}
	for i := 0; i < 16; i++ {
		if tb.Has(uint64(i)) {
			t.Fatalf("key %d survived Reset", i)
		}
	}
	tb.Put(3, 33)
	if v, _ := tb.Get(3); v != 33 {
		t.Fatal("table unusable after Reset")
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

// keyFamilies returns n distinct keys of each shape the replay hashes:
// 64-byte block addresses (a dense run and a scatter), 2 KB region bases,
// packed PC<<5|offset lookup keys, and random words.
func keyFamilies(n int) []struct {
	name string
	keys []uint64
} {
	rng := rand.New(rand.NewSource(int64(n)))
	gen := func(f func(i int) uint64) []uint64 {
		keys := make([]uint64, 0, n)
		seen := map[uint64]bool{}
		for i := 0; len(keys) < n; i++ {
			if k := f(i); !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		return keys
	}
	return []struct {
		name string
		keys []uint64
	}{
		{"block run", gen(func(i int) uint64 { return 0x7f3a00000000 + uint64(i)*64 })},
		{"block scatter", gen(func(int) uint64 { return rng.Uint64() >> 16 &^ 63 })},
		{"region bases", gen(func(i int) uint64 { return 0x10000000 + uint64(i)*2048 })},
		{"pc<<5|offset", gen(func(i int) uint64 { return (0x400000+4*uint64(i/32))<<5 | uint64(i%32) })},
		{"random", gen(func(int) uint64 { return rng.Uint64() })},
	}
}

// Probe quality on the replay's key shapes: Put, Get, Delete and growth
// agree with a map for every family, and at load 1/2 a key sits on
// average at most one slot past its home. A hash that keeps a key's low
// zero bits (the identity, say) piles block addresses onto every 64th
// slot and fails the bound.
func TestProbeQualityOnReplayKeys(t *testing.T) {
	const n = 4096
	for _, fam := range keyFamilies(n) {
		tb := NewU64Table[int](8) // grows as the keys arrive
		ref := map[uint64]int{}
		rng := rand.New(rand.NewSource(1))
		for i, k := range fam.keys {
			tb.Put(k, i)
			ref[k] = i
			if x := fam.keys[rng.Intn(i+1)]; rng.Intn(4) == 0 {
				_, ok := ref[x]
				delete(ref, x)
				if tb.Delete(x) != ok {
					t.Fatalf("%s: Delete(%#x) disagrees with the map", fam.name, x)
				}
			}
			if tb.Len() != len(ref) {
				t.Fatalf("%s: Len %d, map %d", fam.name, tb.Len(), len(ref))
			}
		}
		for _, k := range fam.keys {
			v, ok := tb.Get(k)
			if rv, rok := ref[k]; ok != rok || v != rv || tb.Has(k) != rok {
				t.Fatalf("%s: Get(%#x) = %d,%v, map %d,%v", fam.name, k, v, ok, rv, rok)
			}
		}

		full := NewU64Table[int](n)
		for i, k := range fam.keys {
			full.Put(k, i)
		}
		if !full.Full() || 2*full.Len() != len(full.slots) {
			t.Fatalf("%s: %d keys in %d slots, want load 1/2", fam.name, full.Len(), len(full.slots))
		}
		total := uint64(0)
		for i := range full.slots {
			if full.isUsed(uint64(i)) {
				total += (uint64(i) - full.home(full.slots[i].key)) & full.mask
			}
		}
		if mean := float64(total) / n; mean > 1 {
			t.Errorf("%s: mean probe displacement %.2f slots at load 1/2, want at most 1", fam.name, mean)
		} else {
			t.Logf("%s: mean probe displacement %.2f slots at load 1/2", fam.name, mean)
		}
	}
}
