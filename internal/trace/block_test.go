package trace

import (
	"bytes"
	"math/rand"
	"testing"

	"stems/internal/mem"
)

// randomAccesses builds a deterministic pseudo-random trace exercising
// every column: scattered addresses, a small PC set (dictionary-friendly),
// stores, dependent accesses, and varying think times.
func randomAccesses(seed int64, n int) []Access {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Access, n)
	for i := range out {
		out[i] = Access{
			Addr:  mem.Addr(rng.Uint64() >> 20),
			PC:    uint64(rng.Intn(50)) * 4,
			Write: rng.Intn(5) == 0,
			Dep:   rng.Intn(7) == 0,
			Think: uint16(rng.Intn(300)),
		}
	}
	return out
}

func TestBlockAppendAtRoundTrip(t *testing.T) {
	in := randomAccesses(1, 1000)
	var b Block
	for _, a := range in {
		if !b.Append(a) {
			t.Fatal("Append refused below capacity")
		}
	}
	if b.N != len(in) {
		t.Fatalf("N = %d, want %d", b.N, len(in))
	}
	for i, a := range in {
		if got := b.At(i); got != a {
			t.Fatalf("At(%d) = %+v, want %+v", i, got, a)
		}
	}
	if len(b.PCDict) != 50 {
		t.Errorf("PC dictionary holds %d entries, want 50", len(b.PCDict))
	}
}

func TestBlockCapacity(t *testing.T) {
	var b Block
	for i := 0; i < BlockCap; i++ {
		if !b.Append(Access{Addr: mem.Addr(i)}) {
			t.Fatalf("Append refused at %d < BlockCap", i)
		}
	}
	if !b.Full() {
		t.Fatal("block not Full at BlockCap")
	}
	if b.Append(Access{}) {
		t.Fatal("Append accepted beyond BlockCap")
	}
	b.Reset()
	if b.N != 0 || b.Full() {
		t.Fatal("Reset did not empty the block")
	}
	if !b.Append(Access{Addr: 7, Write: true}) {
		t.Fatal("Append after Reset failed")
	}
	if got := b.At(0); got.Addr != 7 || !got.Write {
		t.Fatalf("post-Reset At(0) = %+v", got)
	}
}

func TestBlockHasWrites(t *testing.T) {
	var b Block
	b.Append(Access{Addr: 1})
	b.Append(Access{Addr: 2})
	if b.HasWrites() {
		t.Fatal("HasWrites true without stores")
	}
	b.Append(Access{Addr: 3, Write: true})
	if !b.HasWrites() {
		t.Fatal("HasWrites false with a store")
	}
}

func TestBlockTraceRoundTrip(t *testing.T) {
	// Straddle several blocks, with a partial tail.
	in := randomAccesses(2, 2*BlockCap+137)
	bt := NewBlockTrace(in)
	if bt.Len() != len(in) {
		t.Fatalf("Len = %d, want %d", bt.Len(), len(in))
	}
	if bt.NumBlocks() != 3 {
		t.Fatalf("NumBlocks = %d, want 3", bt.NumBlocks())
	}
	got := bt.Accesses()
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("access %d = %+v, want %+v", i, got[i], in[i])
		}
	}
}

func TestBlockTraceCursorAliases(t *testing.T) {
	in := randomAccesses(4, BlockCap+100)
	bt := NewBlockTrace(in)
	var b Block
	cur := bt.Blocks()
	if !cur.NextBlock(&b) {
		t.Fatal("no first block")
	}
	if &b.Addrs[0] != &bt.BlockAt(0).Addrs[0] {
		t.Fatal("cursor block does not alias trace storage")
	}
	// A shared block refuses Append until Reset detaches it.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Append to shared block did not panic")
			}
		}()
		b.Append(Access{})
	}()
	b.Reset()
	if !b.Append(Access{Addr: 9}) {
		t.Fatal("Append after Reset failed")
	}
	if &bt.BlockAt(0).Addrs[0] == &b.Addrs[0] {
		t.Fatal("Reset did not detach shared storage")
	}
	if bt.BlockAt(0).At(0) != in[0] {
		t.Fatal("trace storage corrupted by detached append")
	}
}

// dualSource implements both Source and BlockSource, like *Reader.
type dualSource struct {
	SliceSource
	bt *BlockTrace
}

func (d *dualSource) NextBlock(b *Block) bool { return d.bt.Blocks().NextBlock(b) }

func TestBlocksUnwrapsBlockSources(t *testing.T) {
	d := &dualSource{bt: NewBlockTrace(randomAccesses(6, 10))}
	if Blocks(d) != BlockSource(d) {
		t.Fatal("Blocks wrapped a source that already is a BlockSource")
	}
}

func TestBlockTraceMemBytesSmallerThanSlice(t *testing.T) {
	in := randomAccesses(7, 4*BlockCap)
	bt := NewBlockTrace(in)
	aos := len(in) * 24 // unsafe.Sizeof(Access{}) on 64-bit
	if soa := bt.MemBytes(); float64(aos)/float64(soa) < 1.5 {
		t.Fatalf("BlockTrace = %d bytes vs []Access = %d bytes; want >= 1.5x smaller", soa, aos)
	}
}

func TestBlockTraceAppendBlock(t *testing.T) {
	in := randomAccesses(9, 2*BlockCap+77)
	src := NewBlockTrace(in)
	// Frame-at-a-time copy (the ReadTraceFileBlocks fast path).
	dst := &BlockTrace{}
	var b Block
	for cur := src.Blocks(); cur.NextBlock(&b); {
		dst.AppendBlock(&b)
	}
	dst.Seal()
	if dst.Len() != len(in) {
		t.Fatalf("copied trace holds %d accesses, want %d", dst.Len(), len(in))
	}
	got := dst.Accesses()
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("access %d = %+v, want %+v", i, got[i], in[i])
		}
	}
	// Copies own their storage.
	if &dst.BlockAt(0).Addrs[0] == &src.BlockAt(0).Addrs[0] {
		t.Fatal("AppendBlock aliased the source block")
	}

	// Appending a block onto a partial tail falls back to per-access
	// appends and still round-trips.
	mixed := &BlockTrace{}
	mixed.Append(in[0])
	var whole Block
	for _, a := range in[:100] {
		whole.Append(a)
	}
	mixed.AppendBlock(&whole)
	if mixed.Len() != 101 {
		t.Fatalf("mixed trace holds %d accesses, want 101", mixed.Len())
	}
	if acc := mixed.Accesses(); acc[0] != in[0] || acc[1] != in[0] || acc[100] != in[99] {
		t.Fatal("partial-tail AppendBlock scrambled the order")
	}
}

func TestCollectPreallocatesFromHints(t *testing.T) {
	in := randomAccesses(8, 5000)
	for name, src := range map[string]Source{
		"slice": NewSliceSource(in),
		"limit": NewLimit(NewSliceSource(in), 2000),
	} {
		got := Collect(src, 0)
		want := len(in)
		if name == "limit" {
			want = 2000
		}
		if len(got) != want {
			t.Fatalf("%s: collected %d, want %d", name, len(got), want)
		}
		// The hint sized the backing array exactly: no growth headroom.
		if cap(got) != want {
			t.Errorf("%s: cap = %d, want exactly %d (preallocated)", name, cap(got), want)
		}
	}
}

func TestLimitLenHint(t *testing.T) {
	if got := NewLimit(NewSliceSource(mkAccesses(4)), 100).Len(); got != 4 {
		t.Fatalf("Limit(100) over 4 hints %d, want 4", got)
	}
	if got := NewLimit(NewSliceSource(mkAccesses(100)), 7).Len(); got != 7 {
		t.Fatalf("Limit(7) over 100 hints %d, want 7", got)
	}
	if got := NewLimit(NewReader(bytes.NewReader(nil)), 7).Len(); got != 7 {
		t.Fatalf("Limit(7) over unhinted source hints %d, want 7", got)
	}
}

// TestLimitBlocksMatchesPerAccessLimit pins the block-native limiter
// against the per-access Limit at limits that cut a block mid-word, over
// both block producers that hand out aliased storage: a BlockTrace cursor
// and a v2 trace reader. The crossing block holds stores only past the
// limit, so a limiter that kept the stale flag bits would report writes
// the truncated block does not have; the source's storage must come out
// untouched.
func TestLimitBlocksMatchesPerAccessLimit(t *testing.T) {
	in := randomAccesses(21, 2*BlockCap+500)
	for _, limit := range []int{BlockCap + 100, BlockCap + 128, 2 * BlockCap, len(in) + 1} {
		accs := append([]Access(nil), in...)
		for i := BlockCap; i < 2*BlockCap; i++ {
			accs[i].Write = i >= limit
		}
		want := Collect(NewLimit(NewSliceSource(accs), limit), 0)

		bt := NewBlockTrace(accs)
		r := NewReader(bytes.NewReader(writeTrace(t, accs, traceV2)))
		for name, bs := range map[string]BlockSource{"blocktrace": bt.Blocks(), "v2": r} {
			var got []Access
			var b Block
			lim := LimitBlocks(bs, limit)
			for lim.NextBlock(&b) {
				writes := false
				for i := 0; i < b.N; i++ {
					a := b.At(i)
					writes = writes || a.Write
					got = append(got, a)
				}
				if b.HasWrites() != writes {
					t.Fatalf("limit %d, %s: HasWrites = %v over a block whose accesses say %v", limit, name, b.HasWrites(), writes)
				}
				for _, bits := range [][]uint64{b.WriteBits, b.DepBits} {
					if len(bits) != bitWords(b.N) || (b.N&63 != 0 && bits[len(bits)-1]>>uint(b.N&63) != 0) {
						t.Fatalf("limit %d, %s: flag bits past N=%d not cleared", limit, name, b.N)
					}
				}
			}
			if len(got) != len(want) {
				t.Fatalf("limit %d, %s: %d accesses, want %d", limit, name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("limit %d, %s: access %d = %+v, want %+v", limit, name, i, got[i], want[i])
				}
			}
		}
		for i, a := range bt.Accesses() {
			if a != accs[i] {
				t.Fatalf("limit %d: truncation wrote into the BlockTrace at access %d", limit, i)
			}
		}
		if limit < 2*BlockCap && r.cur.N == BlockCap && !r.cur.HasWrites() {
			t.Fatalf("limit %d: truncation cleared the reader's frame", limit)
		}
	}
}
