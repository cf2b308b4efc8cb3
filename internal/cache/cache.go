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

// Cache is a set-associative, LRU-replacement cache of 64-byte blocks. It
// tracks presence only (no data payload); the simulator is trace-driven.
//
// Each set is one contiguous run of words: its recency words, then its
// tags. A recency word packs one age byte per way, eight ways to a word
// (0 is the most recent way, ways-1 the least), so a touch ages every
// younger way with a few word-wide operations, and the victim — the way
// whose age is ways-1 — is found without a per-way scan. An empty way
// holds a tag no block address can equal. The ways start empty with the
// lowest-numbered way oldest, and a filled way never empties again, so
// the victim is the lowest empty way while one is left and the least
// recently used way after that. Bytes past the last way of a word hold an
// age no way reaches, so no operation moves them.
type Cache struct {
	ways    int
	words   int // recency words per set
	stride  int // words per set: words + ways
	setMask uint64
	sets    []uint64

	// OnEvict, if non-nil, is invoked with the block base address of every
	// valid block displaced by a fill. The spatial predictors use this to
	// terminate generations.
	OnEvict func(block mem.Addr)

	// A missing Access hands the way its Fill should replace to the Fill
	// that follows, so a miss scans its set once per level: pendBlock is
	// the missed block and pendWay the victim way, or -1 when there is no
	// hand-off. Any other mutation clears it.
	pendBlock uint64
	pendWay   int
}

const (
	// empty is the tag of an empty way: block addresses are multiples of
	// mem.BlockSize, so none equals it.
	empty = ^uint64(0)
	// unused is the age of the bytes past the last way of a recency word.
	unused = 0x7f

	lsb = 0x0101010101010101 // the low bit of every byte
	msb = 0x8080808080808080 // the high bit of every byte
)

// New constructs a cache; it panics if cfg is invalid (a configuration bug,
// not a runtime condition).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	ways := cfg.Ways
	words := (ways + 7) / 8
	c := &Cache{
		ways:    ways,
		words:   words,
		stride:  words + ways,
		setMask: uint64(cfg.SizeBytes/mem.BlockSize/ways - 1),
		pendWay: -1,
	}
	c.sets = make([]uint64, int(c.setMask+1)*c.stride)
	// Every way starts empty, way 0 oldest.
	for i := 0; i < words; i++ {
		c.sets[i] = unused * lsb
	}
	for w := 0; w < ways; w++ {
		c.setAge(0, w, uint64(ways-1-w))
		c.sets[words+w] = empty
	}
	for i := c.stride; i < len(c.sets); i += c.stride {
		copy(c.sets[i:i+c.stride], c.sets[:c.stride])
	}
	return c
}

// locate returns the block address of addr and the offset of its set.
func (c *Cache) locate(addr mem.Addr) (uint64, int) {
	block := addr.Block()
	return uint64(block), int(block.BlockIndex()&c.setMask) * c.stride
}

// find returns the way of the set at base that holds block, or -1.
func (c *Cache) find(base int, block uint64) int {
	for i, t := range c.sets[base+c.words : base+c.stride] {
		if t == block {
			return i
		}
	}
	return -1
}

// age returns the age byte of way w in the set at base.
func (c *Cache) age(base, w int) uint64 {
	return c.sets[base+w>>3] >> (w & 7 * 8) & 0xff
}

// setAge stores age a for way w in the set at base.
func (c *Cache) setAge(base, w int, a uint64) {
	p := &c.sets[base+w>>3]
	*p = *p&^(0xff<<(w&7*8)) | a<<(w&7*8)
}

// touch makes way w the set's most recent way: every way younger than w
// ages by one. Ages stay below 0x80, so OR-ing in each byte's high bit and
// subtracting w's age borrows across no byte boundary, and the high bit
// left in a byte says whether its age is at least w's.
func (c *Cache) touch(base, w int) {
	a := c.age(base, w)
	if a == 0 {
		return
	}
	ab := a * lsb
	ranks := c.sets[base : base+c.words]
	for i, x := range ranks {
		younger := ^((x | msb) - ab) & msb
		ranks[i] = x + younger>>7
	}
	c.setAge(base, w, 0)
}

// victim returns the way a fill of the set at base replaces: the oldest,
// found by searching each recency word for a zero byte in its XOR with the
// oldest age. The lowest flagged byte of the zero-byte test is exact.
func (c *Cache) victim(base int) int {
	oldest := uint64(c.ways-1) * lsb
	for i, x := range c.sets[base : base+c.words] {
		y := x ^ oldest
		if z := (y - lsb) &^ y & msb; z != 0 {
			return i*8 + bits.TrailingZeros64(z)>>3
		}
	}
	panic("cache: set has no oldest way")
}

// Contains reports whether the block holding addr is present, without
// touching LRU state.
func (c *Cache) Contains(addr mem.Addr) bool {
	block, base := c.locate(addr)
	return c.find(base, block) >= 0
}

// Access performs a demand reference to addr. It returns true on hit. On
// hit the block's LRU state is refreshed. On miss the cache is unchanged:
// the caller decides whether to Fill (modeling the fill that follows the
// miss) so that prefetch buffers can intervene.
func (c *Cache) Access(addr mem.Addr) bool {
	block, base := c.locate(addr)
	if w := c.find(base, block); w >= 0 {
		c.touch(base, w)
		c.pendWay = -1
		return true
	}
	c.pendBlock, c.pendWay = block, c.victim(base)
	return false
}

// Fill installs the block holding addr, evicting the LRU way if the set is
// full. Filling a block that is already present refreshes it instead.
// Right after a missing Access to the same block, with nothing mutated in
// between, the set is not scanned again: the miss already chose the way.
func (c *Cache) Fill(addr mem.Addr) {
	block, base := c.locate(addr)
	w := c.pendWay
	c.pendWay = -1
	if w < 0 || c.pendBlock != block {
		if w = c.find(base, block); w < 0 {
			w = c.victim(base)
		}
	}
	tag := &c.sets[base+c.words+w]
	if old := *tag; old != block && old != empty && c.OnEvict != nil {
		c.OnEvict(mem.Addr(old))
	}
	*tag = block
	c.touch(base, w)
}
