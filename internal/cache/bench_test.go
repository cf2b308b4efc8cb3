package cache

import (
	"math/bits"
	"math/rand"
	"testing"

	"stems/internal/mem"
)

func BenchmarkAccessHit(b *testing.B) {
	c := New(Config{SizeBytes: 64 << 10, Ways: 2})
	c.Fill(0x1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(0x1000)
	}
}

// The replay's three geometries (Table 1's L1, the scaled L2 and Table 1's
// L2), each driven by benchMissFill.
func BenchmarkMissFillL1(b *testing.B)       { benchMissFill(b, Config{SizeBytes: 64 << 10, Ways: 2}) }
func BenchmarkMissFillL2Scaled(b *testing.B) { benchMissFill(b, Config{SizeBytes: 1 << 20, Ways: 8}) }
func BenchmarkMissFillL2(b *testing.B)       { benchMissFill(b, Config{SizeBytes: 8 << 20, Ways: 8}) }

// benchMissFill drives a full cache with a conflict-heavy block stream:
// each block maps to a seeded random set under a tag no earlier block
// used, so every iteration is a miss, a fill and an eviction — the path
// nearly every replayed access takes through the L2, and the unit-level
// counterpart of the cache layer in a whole-trace replay.
func benchMissFill(b *testing.B, cfg Config) {
	c := New(cfg)
	evictions := 0
	c.OnEvict = func(mem.Addr) { evictions++ }
	sets := cfg.SizeBytes / mem.BlockSize / cfg.Ways
	setBits := bits.TrailingZeros(uint(sets))
	block := func(tag int, set int) mem.Addr {
		return mem.Addr(tag<<setBits|set) * mem.BlockSize
	}
	rng := rand.New(rand.NewSource(1))
	order := make([]int, 4*sets)
	for i := range order {
		order[i] = rng.Intn(sets)
	}
	for set := 0; set < sets; set++ {
		for tag := 0; tag < cfg.Ways; tag++ {
			c.Fill(block(tag, set))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := block(cfg.Ways+i, order[i&(len(order)-1)])
		if !c.Access(a) {
			c.Fill(a)
		}
	}
	b.StopTimer()
	if evictions != b.N {
		b.Fatalf("%d evictions in %d iterations, want one per iteration", evictions, b.N)
	}
}
