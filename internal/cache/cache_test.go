package cache

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"stems/internal/mem"
)

// occupancy returns the number of valid blocks resident in c.
func occupancy(c *Cache) int {
	n := 0
	for base := 0; base < len(c.sets); base += c.stride {
		for _, t := range c.sets[base+c.words : base+c.stride] {
			if t != empty {
				n++
			}
		}
	}
	return n
}

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
	if c.Access(a) {
		t.Fatal("access to empty cache hit")
	}
	c.Fill(a)
	if !c.Access(a) {
		t.Fatal("access after fill missed")
	}
	if !c.Access(a + 63) {
		t.Fatal("access to same block missed")
	}
	if c.Access(a + 64) {
		t.Fatal("access to next block hit")
	}
}

func TestLRUEviction(t *testing.T) {
	c := small()
	var evicted []mem.Addr
	c.OnEvict = func(b mem.Addr) { evicted = append(evicted, b) }

	// Three blocks mapping to the same set (4 sets, stride 4*64 = 256B).
	a0, a1, a2 := mem.Addr(0), mem.Addr(256), mem.Addr(512)
	c.Fill(a0)
	c.Fill(a1)
	c.Access(a0) // a0 now MRU; a1 is LRU
	c.Fill(a2)   // must evict a1
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
	c.Fill(a0)
	c.Fill(a1)
	c.Fill(a0) // refresh a0; a1 becomes LRU
	c.Fill(a2)
	if c.Contains(a1) {
		t.Error("refreshed fill did not update LRU: a1 survived")
	}
	if !c.Contains(a0) {
		t.Error("a0 was evicted despite refresh")
	}
}

func TestOccupancyBounded(t *testing.T) {
	c := small()
	for i := 0; i < 1000; i++ {
		c.Fill(mem.Addr(i * 64))
	}
	if occ := occupancy(c); occ != 8 {
		t.Errorf("occupancy = %d, want full capacity 8", occ)
	}
}

// Property: a fill makes the block present; capacity is never exceeded; an
// access immediately after a fill always hits.
func TestFillThenHitProperty(t *testing.T) {
	c := New(Config{SizeBytes: 2048, Ways: 4})
	f := func(raw uint32) bool {
		a := mem.Addr(raw)
		c.Fill(a)
		return c.Access(a) && occupancy(c) <= 32
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the cache models a true LRU set — simulate against a reference
// model on a single set, at several associativities. Between a miss and
// its fill the driver interleaves Contains (which must not disturb the
// miss's victim hand-off), and sometimes drops the fill altogether so the
// next miss starts a new hand-off. Every eviction must name the
// reference's LRU block and fire before the new block is installed.
func TestLRUMatchesReferenceModel(t *testing.T) {
	for _, ways := range testWays {
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
			if c.Access(b) {
				refRemove(b)
				ref = append(ref, b)
			} else {
				if refIndex(b) >= 0 {
					t.Fatalf("ways=%d step %d: Access(%d) missed a resident block", ways, step, b)
				}
				for n := rng.Intn(3); n > 0; n-- {
					x := mem.Addr(rng.Intn(blocks) * 64)
					if c.Contains(x) != (refIndex(x) >= 0) {
						t.Fatalf("ways=%d step %d: Contains(%d) disagrees between miss and fill", ways, step, x)
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
				c.Fill(b)
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
		c.Fill(mem.Addr(i * 64))
	}
	if calls != 0 {
		t.Errorf("evictions while filling empty cache: %d", calls)
	}
	c.Fill(mem.Addr(8 * 64))
	if calls != 1 {
		t.Errorf("evictions after overflow: %d, want 1", calls)
	}
}

// testWays are the associativities the model tests cover: one way, the
// replay's 2 and 8, a way either side of a full recency word (7 and 9, 17),
// two and eight full words (16 and 64), and an odd count in between.
var testWays = []int{1, 2, 3, 7, 8, 9, 16, 17, 64}

// stampCache is the set model the packed recency words replaced, kept as
// the differential reference: a last-touch stamp per way, a validity mask
// per set, the victim the lowest invalid way or else the smallest stamp,
// and the same miss-to-fill victim hand-off.
type stampCache struct {
	ways      int
	setMask   uint64
	tags      []mem.Addr
	lrus      []uint64
	valid     []uint64
	stamp     uint64
	onEvict   func(mem.Addr)
	pendBlock mem.Addr
	pendWay   int
}

func newStampCache(cfg Config) *stampCache {
	sets := cfg.SizeBytes / mem.BlockSize / cfg.Ways
	return &stampCache{
		ways:    cfg.Ways,
		setMask: uint64(sets - 1),
		tags:    make([]mem.Addr, sets*cfg.Ways),
		lrus:    make([]uint64, sets*cfg.Ways),
		valid:   make([]uint64, sets),
		pendWay: -1,
	}
}

// find returns the set, its first way's index and the way holding block,
// or -1.
func (c *stampCache) find(addr mem.Addr) (set uint64, base, way int) {
	set = addr.Block().BlockIndex() & c.setMask
	base = int(set) * c.ways
	for i, t := range c.tags[base : base+c.ways] {
		if t == addr.Block() && c.valid[set]>>uint(i)&1 != 0 {
			return set, base, i
		}
	}
	return set, base, -1
}

func (c *stampCache) victim(set uint64, base int) int {
	if invalid := ^c.valid[set] & (1<<uint(c.ways) - 1); invalid != 0 {
		return bits.TrailingZeros64(invalid)
	}
	v := 0
	for i, l := range c.lrus[base : base+c.ways] {
		if l < c.lrus[base+v] {
			v = i
		}
	}
	return v
}

func (c *stampCache) contains(addr mem.Addr) bool {
	_, _, w := c.find(addr)
	return w >= 0
}

func (c *stampCache) access(addr mem.Addr) bool {
	set, base, w := c.find(addr)
	c.stamp++
	if w >= 0 {
		c.lrus[base+w] = c.stamp
		c.pendWay = -1
		return true
	}
	c.pendBlock, c.pendWay = addr.Block(), c.victim(set, base)
	return false
}

func (c *stampCache) fill(addr mem.Addr) {
	set, base, w := c.find(addr)
	c.stamp++
	victim := c.pendWay
	c.pendWay = -1
	if victim < 0 || c.pendBlock != addr.Block() {
		if w >= 0 {
			c.lrus[base+w] = c.stamp
			return
		}
		victim = c.victim(set, base)
	}
	if c.valid[set]>>uint(victim)&1 != 0 {
		c.onEvict(c.tags[base+victim])
	}
	c.tags[base+victim] = addr.Block()
	c.lrus[base+victim] = c.stamp
	c.valid[set] |= 1 << uint(victim)
}

// Differential test: the packed recency words against the stamp model, over
// four sets at every testWays associativity. The stream mixes demand
// accesses with and without their fill, fills with no access before them
// (the SVB-hit path fills the L2 that way) and addresses inside a block.
// Between a miss and its fill it interleaves Contains. Every hit result,
// victim way, eviction (in order), Contains answer, and the way every
// block sits in must agree.
func TestPackedSetsMatchStampModel(t *testing.T) {
	const sets = 4
	for _, ways := range testWays {
		cfg := Config{SizeBytes: sets * ways * mem.BlockSize, Ways: ways}
		c, ref := New(cfg), newStampCache(cfg)
		var got, want []mem.Addr
		c.OnEvict = func(b mem.Addr) { got = append(got, b) }
		ref.onEvict = func(b mem.Addr) { want = append(want, b) }
		blocks := sets * (2*ways + 1)
		rng := rand.New(rand.NewSource(int64(ways)))
		addr := func() mem.Addr {
			return mem.Addr(rng.Intn(blocks)*mem.BlockSize + rng.Intn(mem.BlockSize))
		}
		for step := 0; step < 40000; step++ {
			a := addr()
			switch op := rng.Intn(16); {
			case op < 3:
				c.Fill(a)
				ref.fill(a)
			default:
				hit := c.Access(a)
				if hit != ref.access(a) {
					t.Fatalf("ways=%d step %d: Access(%#x) hit=%v, reference disagrees", ways, step, a, hit)
				}
				if hit {
					break
				}
				if c.pendWay != ref.pendWay {
					t.Fatalf("ways=%d step %d: Access(%#x) chose victim way %d, reference %d", ways, step, a, c.pendWay, ref.pendWay)
				}
				for n := rng.Intn(3); n > 0; n-- {
					if x := addr(); c.Contains(x) != ref.contains(x) {
						t.Fatalf("ways=%d step %d: Contains(%#x) disagrees between miss and fill", ways, step, x)
					}
				}
				if rng.Intn(8) != 0 {
					c.Fill(a)
					ref.fill(a)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("ways=%d step %d: evicted %#x, reference %#x", ways, step, got, want)
			}
			got, want = got[:0], want[:0]
			if x := addr(); c.Contains(x) != ref.contains(x) {
				t.Fatalf("ways=%d step %d: Contains(%#x) disagrees", ways, step, x)
			}
			// Every block sits in the way the reference put it in.
			for set := 0; set < sets; set++ {
				for w := 0; w < ways; w++ {
					tag, refTag := c.sets[set*c.stride+c.words+w], empty
					if ref.valid[set]>>uint(w)&1 != 0 {
						refTag = uint64(ref.tags[set*ways+w])
					}
					if tag != refTag {
						t.Fatalf("ways=%d step %d: set %d way %d holds %#x, reference %#x", ways, step, set, w, tag, refTag)
					}
				}
			}
		}
	}
}
