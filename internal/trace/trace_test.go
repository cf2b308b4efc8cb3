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

// collectBlocks drains a block stream into the accesses it carries.
func collectBlocks(bs BlockSource) []Access {
	var out []Access
	var b Block
	for bs.NextBlock(&b) {
		for i := 0; i < b.N; i++ {
			out = append(out, b.At(i))
		}
	}
	return out
}

func TestLimit(t *testing.T) {
	got := collectBlocks(LimitBlocks(NewBlockTrace(mkAccesses(100)).Blocks(), 3))
	if len(got) != 3 {
		t.Fatalf("LimitBlocks(3) yielded %d accesses", len(got))
	}
	// A limit larger than the underlying stream yields the whole stream.
	if got := collectBlocks(LimitBlocks(NewBlockTrace(mkAccesses(4)).Blocks(), 100)); len(got) != 4 {
		t.Fatalf("LimitBlocks(100) over 4 yielded %d", len(got))
	}
}

// Property: LimitBlocks(n) never yields more than n and preserves
// order/content.
func TestLimitProperty(t *testing.T) {
	f := func(sizes []uint8, limit uint8) bool {
		in := mkAccesses(int(limit) + len(sizes))
		got := collectBlocks(LimitBlocks(NewBlockTrace(in).Blocks(), int(limit)))
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
