// Package cache implements the set-associative caches used by the simulated
// memory hierarchy (Table 1: split 64KB 2-way L1, unified 8MB 8-way L2, 64B
// blocks). The spatial predictors need to observe block evictions to end
// spatial generations (§2.4), so the cache reports every victim.
package cache

import (
	"fmt"
	"math/bits"

	"stems/internal/mem"
)

// Config describes a cache's geometry.
type Config struct {
	// SizeBytes is the total capacity in bytes.
	SizeBytes int
	// Ways is the set associativity.
	Ways int
}

// Validate reports whether the configuration describes a realizable cache.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	}
	if c.Ways > 64 {
		return fmt.Errorf("cache: associativity %d exceeds the 64-way limit", c.Ways)
	}
	blocks := c.SizeBytes / mem.BlockSize
	if blocks*mem.BlockSize != c.SizeBytes {
		return fmt.Errorf("cache: size %d not a multiple of block size", c.SizeBytes)
	}
	if blocks%c.Ways != 0 {
		return fmt.Errorf("cache: %d blocks not divisible by %d ways", blocks, c.Ways)
	}
	sets := blocks / c.Ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return nil
}

// Cache is a set-associative, LRU-replacement, write-allocate cache of
// 64-byte blocks. It tracks presence only (no data payload); the simulator
// is trace-driven.
//
// Way state is stored column-wise: one contiguous tag array (way-major
// within each set) plus per-set valid/dirty bitmasks and a parallel LRU
// stamp array. A probe scans the set's tags in one cache line (an 8-way
// set is exactly 64 bytes of tags) instead of striding over padded
// per-way structs — the probe loops sit on the per-access simulation path
// for every level of the hierarchy and on the stream engine's
// duplicate-fetch filter.
type Cache struct {
	cfg     Config
	ways    int
	setMask uint64
	tags    []mem.Addr // sets × ways block base addresses
	lrus    []uint64   // sets × ways last-touch stamps; larger = more recent
	valid   []uint64   // per-set validity bitmask over ways
	dirty   []uint64   // per-set dirty bitmask over ways
	stamp   uint64

	// OnEvict, if non-nil, is invoked with the block base address of every
	// valid block displaced by a fill (or removed by Invalidate). The
	// spatial predictors use this to terminate generations.
	OnEvict func(block mem.Addr)

	// A missing Access hands the way its Fill should replace to the Fill
	// that follows, so a miss scans its set once per level: pendBlock is
	// the missed block and pendWay the victim way, or -1 when there is no
	// hand-off. Any other mutation clears it.
	pendBlock mem.Addr
	pendWay   int

	hits, misses uint64
}

// New constructs a cache; it panics if cfg is invalid (a configuration bug,
// not a runtime condition).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.SizeBytes / mem.BlockSize / cfg.Ways
	return &Cache{
		cfg:     cfg,
		ways:    cfg.Ways,
		setMask: uint64(sets - 1),
		tags:    make([]mem.Addr, sets*cfg.Ways),
		lrus:    make([]uint64, sets*cfg.Ways),
		valid:   make([]uint64, sets),
		dirty:   make([]uint64, sets),
		pendWay: -1,
	}
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return len(c.valid) }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.cfg.Ways }

// Contains reports whether the block holding addr is present, without
// touching LRU state or statistics.
func (c *Cache) Contains(addr mem.Addr) bool {
	block := addr.Block()
	set := block.BlockIndex() & c.setMask
	vm := c.valid[set]
	base := int(set) * c.ways
	for _, t := range c.tags[base : base+c.ways] {
		if t == block && vm&1 != 0 {
			return true
		}
		vm >>= 1
	}
	return false
}

// Access performs a demand reference to addr. It returns true on hit. On
// hit the block's LRU state is refreshed (and marked dirty for writes). On
// miss the cache is unchanged: the caller decides whether to Fill (modeling
// the fill that follows the miss) so that prefetch buffers can intervene.
func (c *Cache) Access(addr mem.Addr, write bool) bool {
	block := addr.Block()
	set := block.BlockIndex() & c.setMask
	vm := c.valid[set]
	base := int(set) * c.ways
	c.stamp++
	for i, t := range c.tags[base : base+c.ways] {
		if t == block && vm>>uint(i)&1 != 0 {
			c.lrus[base+i] = c.stamp
			if write {
				c.dirty[set] |= 1 << uint(i)
			}
			c.hits++
			c.pendWay = -1
			return true
		}
	}
	c.misses++
	c.pendBlock, c.pendWay = block, c.victim(base, vm)
	return false
}

// victim returns the way a fill of the set at base replaces: the lowest
// invalid way, else the least recently used one.
func (c *Cache) victim(base int, vm uint64) int {
	if invalid := ^vm & (1<<uint(c.ways) - 1); invalid != 0 {
		return bits.TrailingZeros64(invalid)
	}
	lrus := c.lrus[base : base+c.ways]
	v := 0
	for i, l := range lrus {
		if l < lrus[v] {
			v = i
		}
	}
	return v
}

// Fill installs the block holding addr, evicting the LRU way if the set is
// full. Filling a block that is already present refreshes it instead.
// Right after a missing Access to the same block, with nothing mutated in
// between, the set is not scanned again: the miss already chose the way.
func (c *Cache) Fill(addr mem.Addr, write bool) {
	block := addr.Block()
	set := block.BlockIndex() & c.setMask
	vm := c.valid[set]
	base := int(set) * c.ways
	c.stamp++
	victim := c.pendWay
	c.pendWay = -1
	if victim < 0 || c.pendBlock != block {
		for i, t := range c.tags[base : base+c.ways] {
			if t == block && vm>>uint(i)&1 != 0 {
				c.lrus[base+i] = c.stamp
				if write {
					c.dirty[set] |= 1 << uint(i)
				}
				return
			}
		}
		victim = c.victim(base, vm)
	}
	if vm>>uint(victim)&1 != 0 && c.OnEvict != nil {
		c.OnEvict(c.tags[base+victim])
	}
	c.tags[base+victim] = block
	c.lrus[base+victim] = c.stamp
	c.valid[set] |= 1 << uint(victim)
	if write {
		c.dirty[set] |= 1 << uint(victim)
	} else {
		c.dirty[set] &^= 1 << uint(victim)
	}
}

// Invalidate removes the block holding addr if present, reporting whether it
// was. The eviction callback fires, matching the paper's rule that a
// generation ends "when one of the accessed blocks is evicted or
// invalidated from the L1 cache" (§2.4).
func (c *Cache) Invalidate(addr mem.Addr) bool {
	c.pendWay = -1
	block := addr.Block()
	set := block.BlockIndex() & c.setMask
	vm := c.valid[set]
	base := int(set) * c.ways
	for i, t := range c.tags[base : base+c.ways] {
		if t == block && vm>>uint(i)&1 != 0 {
			c.valid[set] &^= 1 << uint(i)
			if c.OnEvict != nil {
				c.OnEvict(block)
			}
			return true
		}
	}
	return false
}

// Stats returns cumulative demand hit and miss counts.
func (c *Cache) Stats() (hits, misses uint64) { return c.hits, c.misses }

// ResetStats clears hit/miss counters without touching cache contents.
func (c *Cache) ResetStats() { c.hits, c.misses = 0, 0 }

// Occupancy returns the number of valid blocks currently resident.
func (c *Cache) Occupancy() int {
	n := 0
	for _, vm := range c.valid {
		n += bits.OnesCount64(vm)
	}
	return n
}
