package lru

import "testing"

func BenchmarkPutGet(b *testing.B) {
	m := NewU64[int](16 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(i) % (20 << 10) // mix of hits, misses, evictions
		if _, ok := m.Get(k); !ok {
			m.Put(k, i)
		}
	}
}
