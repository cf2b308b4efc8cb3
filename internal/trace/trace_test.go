package trace

import (
	"testing"
	"testing/quick"

	"stems/internal/mem"
)

func mkAccesses(n int) []Access {
	out := make([]Access, n)
	for i := range out {
		out[i] = Access{Addr: mem.Addr(i * 64), PC: uint64(i % 7)}
	}
	return out
}

func TestSliceSourceYieldsAll(t *testing.T) {
	in := mkAccesses(10)
	src := NewSliceSource(in)
	got := Collect(src, 0)
	if len(got) != len(in) {
		t.Fatalf("collected %d accesses, want %d", len(got), len(in))
	}
	for i := range in {
		if got[i] != in[i] {
			t.Errorf("access %d = %+v, want %+v", i, got[i], in[i])
		}
	}
}

func TestSliceSourceReset(t *testing.T) {
	src := NewSliceSource(mkAccesses(5))
	first := Collect(src, 0)
	src.Reset()
	second := Collect(src, 0)
	if len(first) != 5 || len(second) != 5 {
		t.Fatalf("lens = %d, %d; want 5, 5", len(first), len(second))
	}
}

func TestCollectMax(t *testing.T) {
	src := NewSliceSource(mkAccesses(100))
	got := Collect(src, 7)
	if len(got) != 7 {
		t.Fatalf("Collect max=7 returned %d", len(got))
	}
}

func TestLimit(t *testing.T) {
	src := NewLimit(NewSliceSource(mkAccesses(100)), 3)
	got := Collect(src, 0)
	if len(got) != 3 {
		t.Fatalf("Limit(3) yielded %d accesses", len(got))
	}
	// Limit larger than the underlying stream yields the whole stream.
	src2 := NewLimit(NewSliceSource(mkAccesses(4)), 100)
	if got := Collect(src2, 0); len(got) != 4 {
		t.Fatalf("Limit(100) over 4 yielded %d", len(got))
	}
}

// Property: Limit(n) never yields more than n and preserves order/content.
func TestLimitProperty(t *testing.T) {
	f := func(sizes []uint8, limit uint8) bool {
		in := mkAccesses(int(limit) + len(sizes))
		src := NewLimit(NewSliceSource(in), int(limit))
		got := Collect(src, 0)
		if len(got) > int(limit) {
			return false
		}
		for i := range got {
			if got[i] != in[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
