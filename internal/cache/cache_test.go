package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"stems/internal/mem"
)

func small() *Cache {
	// 4 sets x 2 ways x 64B = 512B cache.
	return New(Config{SizeBytes: 512, Ways: 2})
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{SizeBytes: 0, Ways: 2},
		{SizeBytes: 512, Ways: 0},
		{SizeBytes: 100, Ways: 2},    // not block multiple
		{SizeBytes: 3 * 64, Ways: 2}, // blocks not divisible by ways
		{SizeBytes: 6 * 64, Ways: 2}, // 3 sets: not power of two
		{SizeBytes: -512, Ways: 2},   // negative
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", cfg)
		}
	}
	good := []Config{
		{SizeBytes: 512, Ways: 2},
		{SizeBytes: 64 * 1024, Ways: 2},
		{SizeBytes: 8 << 20, Ways: 8},
	}
	for _, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", cfg, err)
		}
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with invalid config did not panic")
		}
	}()
	New(Config{SizeBytes: 100, Ways: 3})
}

func TestMissThenFillThenHit(t *testing.T) {
	c := small()
	a := mem.Addr(0x1000)
	if c.Access(a, false) {
		t.Fatal("access to empty cache hit")
	}
	c.Fill(a, false)
	if !c.Access(a, false) {
		t.Fatal("access after fill missed")
	}
	if !c.Access(a+63, false) {
		t.Fatal("access to same block missed")
	}
	if c.Access(a+64, false) {
		t.Fatal("access to next block hit")
	}
}

func TestLRUEviction(t *testing.T) {
	c := small()
	var evicted []mem.Addr
	c.OnEvict = func(b mem.Addr) { evicted = append(evicted, b) }

	// Three blocks mapping to the same set (4 sets, stride 4*64 = 256B).
	a0, a1, a2 := mem.Addr(0), mem.Addr(256), mem.Addr(512)
	c.Fill(a0, false)
	c.Fill(a1, false)
	c.Access(a0, false) // a0 now MRU; a1 is LRU
	c.Fill(a2, false)   // must evict a1
	if len(evicted) != 1 || evicted[0] != a1 {
		t.Fatalf("evicted = %v, want [%d]", evicted, a1)
	}
	if !c.Contains(a0) || !c.Contains(a2) || c.Contains(a1) {
		t.Fatal("post-eviction contents wrong")
	}
}

func TestFillRefreshesExisting(t *testing.T) {
	c := small()
	a0, a1, a2 := mem.Addr(0), mem.Addr(256), mem.Addr(512)
	c.Fill(a0, false)
	c.Fill(a1, false)
	c.Fill(a0, false) // refresh a0; a1 becomes LRU
	c.Fill(a2, false)
	if c.Contains(a1) {
		t.Error("refreshed fill did not update LRU: a1 survived")
	}
	if !c.Contains(a0) {
		t.Error("a0 was evicted despite refresh")
	}
}

func TestInvalidate(t *testing.T) {
	c := small()
	var evicted []mem.Addr
	c.OnEvict = func(b mem.Addr) { evicted = append(evicted, b) }
	a := mem.Addr(0x40)
	c.Fill(a, false)
	if !c.Invalidate(a) {
		t.Fatal("Invalidate on present block returned false")
	}
	if c.Contains(a) {
		t.Fatal("block still present after Invalidate")
	}
	if c.Invalidate(a) {
		t.Fatal("Invalidate on absent block returned true")
	}
	if len(evicted) != 1 || evicted[0] != a.Block() {
		t.Fatalf("eviction callback got %v, want [%d]", evicted, a.Block())
	}
}

func TestStats(t *testing.T) {
	c := small()
	c.Access(0, false) // miss
	c.Fill(0, false)
	c.Access(0, false)  // hit
	c.Access(10, false) // hit (same block)
	hits, misses := c.Stats()
	if hits != 2 || misses != 1 {
		t.Errorf("stats = (%d,%d), want (2,1)", hits, misses)
	}
	c.ResetStats()
	hits, misses = c.Stats()
	if hits != 0 || misses != 0 {
		t.Errorf("stats after reset = (%d,%d)", hits, misses)
	}
}

func TestOccupancyBounded(t *testing.T) {
	c := small()
	for i := 0; i < 1000; i++ {
		c.Fill(mem.Addr(i*64), false)
	}
	if occ := c.Occupancy(); occ != 8 {
		t.Errorf("occupancy = %d, want full capacity 8", occ)
	}
}

// Property: a fill makes the block present; capacity is never exceeded; an
// access immediately after a fill always hits.
func TestFillThenHitProperty(t *testing.T) {
	c := New(Config{SizeBytes: 2048, Ways: 4})
	f := func(raw uint32) bool {
		a := mem.Addr(raw)
		c.Fill(a, false)
		return c.Access(a, false) && c.Occupancy() <= 32
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the cache models a true LRU set — simulate against a reference
// model on a single set, at several associativities. Between a miss and
// its fill the driver interleaves Contains (which must not disturb the
// miss's victim hand-off) and Invalidate (which must cancel it, since the
// fill then belongs in the freed way), and sometimes drops the fill
// altogether so the next miss starts a new hand-off. Every eviction must
// name the reference's LRU block and fire before the new block is
// installed.
func TestLRUMatchesReferenceModel(t *testing.T) {
	for _, ways := range []int{1, 2, 8, 64} {
		c := New(Config{SizeBytes: ways * 64, Ways: ways}) // one set
		var ref []mem.Addr                                 // front = LRU, back = MRU
		refIndex := func(b mem.Addr) int {
			for i, x := range ref {
				if x == b {
					return i
				}
			}
			return -1
		}
		refRemove := func(b mem.Addr) bool {
			if i := refIndex(b); i >= 0 {
				ref = append(ref[:i:i], ref[i+1:]...)
				return true
			}
			return false
		}
		var filling mem.Addr
		inFill := false
		var evicted []mem.Addr
		c.OnEvict = func(b mem.Addr) {
			if inFill && (!c.Contains(b) || c.Contains(filling)) {
				t.Fatalf("ways=%d: eviction of %d fired after the install of %d", ways, b, filling)
			}
			evicted = append(evicted, b)
		}
		blocks := 2*ways + 1
		rng := rand.New(rand.NewSource(int64(42 + ways)))
		for step := 0; step < 20000; step++ {
			b := mem.Addr(rng.Intn(blocks) * 64)
			if c.Access(b, false) {
				refRemove(b)
				ref = append(ref, b)
			} else {
				if refIndex(b) >= 0 {
					t.Fatalf("ways=%d step %d: Access(%d) missed a resident block", ways, step, b)
				}
				for n := rng.Intn(3); n > 0; n-- {
					x := mem.Addr(rng.Intn(blocks) * 64)
					if rng.Intn(2) == 0 {
						if c.Contains(x) != (refIndex(x) >= 0) {
							t.Fatalf("ways=%d step %d: Contains(%d) disagrees between miss and fill", ways, step, x)
						}
						continue
					}
					evicted = evicted[:0]
					if c.Invalidate(x) != refRemove(x) {
						t.Fatalf("ways=%d step %d: Invalidate(%d) disagrees", ways, step, x)
					}
					if len(evicted) > 1 || (len(evicted) == 1 && evicted[0] != x) {
						t.Fatalf("ways=%d step %d: Invalidate(%d) reported %v", ways, step, x, evicted)
					}
				}
				if rng.Intn(8) == 0 {
					continue // a miss with no fill; the next access starts afresh
				}
				var want []mem.Addr
				if len(ref) == ways {
					want = []mem.Addr{ref[0]}
					ref = ref[1:]
				}
				ref = append(ref, b)
				filling, evicted, inFill = b, evicted[:0], true
				c.Fill(b, false)
				inFill = false
				if len(evicted) != len(want) || (len(want) == 1 && evicted[0] != want[0]) {
					t.Fatalf("ways=%d step %d: Fill(%d) evicted %v, reference LRU victim %v", ways, step, b, evicted, want)
				}
			}
			for blk := 0; blk < blocks; blk++ {
				x := mem.Addr(blk * 64)
				if c.Contains(x) != (refIndex(x) >= 0) {
					t.Fatalf("ways=%d step %d: Contains(%d)=%v, ref=%v", ways, step, x, c.Contains(x), ref)
				}
			}
		}
	}
}

func TestEvictionCallbackOnlyForValidVictims(t *testing.T) {
	c := small()
	calls := 0
	c.OnEvict = func(mem.Addr) { calls++ }
	// Filling an empty cache must not fire evictions.
	for i := 0; i < 8; i++ {
		c.Fill(mem.Addr(i*64), false)
	}
	if calls != 0 {
		t.Errorf("evictions while filling empty cache: %d", calls)
	}
	c.Fill(mem.Addr(8*64), false)
	if calls != 1 {
		t.Errorf("evictions after overflow: %d, want 1", calls)
	}
}
