package trace

import (
	"bytes"
	"math/rand"
	"sync"
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

// TestBlockTraceCursorMaterializes pins the cursor's contract over packed
// storage: blocks come out widened into scratch the cursor owns and reuses
// from block to block, read-only until Reset detaches them, and two
// cursors over one trace never share scratch.
func TestBlockTraceCursorMaterializes(t *testing.T) {
	in := randomAccesses(4, 2*BlockCap+100)
	for i := range in {
		in[i].Addr &= 1<<32 - 1 // one 4 GB segment: the address column packs
	}
	bt := NewBlockTrace(in)
	var b, b2 Block
	cur, cur2 := bt.Blocks(), bt.Blocks()
	if !cur.NextBlock(&b) || !cur2.NextBlock(&b2) {
		t.Fatal("no first block")
	}
	first := &b.Addrs[0]
	if first == &b2.Addrs[0] {
		t.Fatal("two cursors share widening scratch")
	}
	for i := 0; i < b.N; i++ {
		if b.At(i) != in[i] || b2.At(i) != in[i] {
			t.Fatalf("access %d = %+v / %+v, want %+v", i, b.At(i), b2.At(i), in[i])
		}
	}
	if !cur.NextBlock(&b) {
		t.Fatal("no second block")
	}
	if &b.Addrs[0] != first {
		t.Fatal("cursor reallocated its scratch for the second block")
	}
	if b.At(0) != in[BlockCap] {
		t.Fatalf("second block starts with %+v, want %+v", b.At(0), in[BlockCap])
	}
	// A handed-out block refuses Append until Reset detaches it.
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
	if &b.Addrs[0] == first {
		t.Fatal("Reset did not detach the cursor's scratch")
	}
	for i, a := range bt.Accesses() {
		if a != in[i] {
			t.Fatalf("trace storage corrupted at access %d", i)
		}
	}
}

// TestBlockTraceCursorMixedEncodings replays blocks whose columns switch
// encodings from block to block, so a cursor reusing its scratch must
// rewrite what the previous block left there: one PC and one think time,
// then dictionaries, then one PC and the same think time again, then a
// second think time, then full-width columns, then the first shape again.
func TestBlockTraceCursorMixedEncodings(t *testing.T) {
	shapes := []struct{ his, pcs, thinks, think0 int }{
		{1, 1, 1, 5}, {3, 40, 2, 5}, {1, 1, 1, 5}, {1, 1, 1, 6}, {300, 300, 300, 0}, {2, 1, 1, 6}, {1, 1, 1, 5},
	}
	var in []Access
	var sizes blockSizes
	for k, s := range shapes {
		for i := 0; i < BlockCap; i++ {
			in = append(in, Access{
				Addr:  mem.Addr(uint64(i%s.his)<<32 | uint64(k*BlockCap+i)*64),
				PC:    uint64(100 + i%s.pcs),
				Think: uint16(s.think0 + i%s.thinks),
				Write: i%9 == 0,
			})
			sizes.append()
		}
	}
	checkBlockTrace(t, "mixed", NewBlockTrace(in), in, sizes)
}

// TestBlockTraceConcurrentCursors replays one packed trace from several
// goroutines at once, as the arena's sweep cells do: each cursor widens
// into its own scratch and reads the shared storage only.
func TestBlockTraceConcurrentCursors(t *testing.T) {
	in := randomAccesses(13, 3*BlockCap+11)
	for i := range in {
		in[i].Addr &= 1<<34 - 1
	}
	bt := NewBlockTrace(in)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var b Block
			pos := 0
			for cur := bt.Blocks(); cur.NextBlock(&b); {
				for i := 0; i < b.N; i++ {
					if a := b.At(i); a != in[pos+i] {
						t.Errorf("access %d = %+v, want %+v", pos+i, a, in[pos+i])
						return
					}
				}
				pos += b.N
			}
			if pos != len(in) {
				t.Errorf("cursor replayed %d accesses, want %d", pos, len(in))
			}
		}()
	}
	wg.Wait()
}

// dualSource implements both Source and BlockSource.
type dualSource struct {
	bt *BlockTrace
}

func (d *dualSource) Next(*Access) bool { return false }

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

// fullWidthBytes is the column storage of an n-access block with a d-entry
// PC dictionary at full width: what every block took before packing.
func fullWidthBytes(n, d int) int {
	return 8*n + 8*d + 2*n + 2*n + 2*8*bitWords(n)
}

// packOne packs the accesses as one block.
func packOne(accs []Access) packedBlock {
	var b Block
	for _, a := range accs {
		b.Append(a)
	}
	return newPacker().pack(&b)
}

// TestBlockTracePackingChoices pins the encoding each column takes: a
// dictionary when it holds at most 256 entries and makes the column
// smaller, no index column when it holds one, full width otherwise.
func TestBlockTracePackingChoices(t *testing.T) {
	mk := func(n, his, pcs, thinks int) []Access {
		out := make([]Access, n)
		for i := range out {
			out[i] = Access{
				Addr:  mem.Addr(uint64(i%his)<<32 | uint64(i)*64),
				PC:    uint64(i % pcs),
				Think: uint16(i % thinks),
			}
		}
		return out
	}
	for _, c := range []struct {
		name                                 string
		n, his, pcs, thinks                  int
		addrs, hiIdx, pcIdx8, pcIdx16, think bool
		thinkIdx                             bool
	}{
		{name: "one of each", n: BlockCap, his: 1, pcs: 1, thinks: 1},
		{name: "256 of each", n: BlockCap, his: 256, pcs: 256, thinks: 256, hiIdx: true, pcIdx8: true, thinkIdx: true},
		{name: "257 of each", n: BlockCap, his: 257, pcs: 257, thinks: 257, addrs: true, pcIdx16: true, think: true},
		{name: "suite-like", n: BlockCap, his: 3, pcs: 65, thinks: 2, hiIdx: true, pcIdx8: true, thinkIdx: true},
		// A dictionary that would not make the column smaller is not used.
		{name: "one access", n: 1, his: 1, pcs: 1, thinks: 1, addrs: true, think: true},
		{name: "short, distinct", n: 40, his: 40, pcs: 40, thinks: 40, addrs: true, pcIdx8: true, think: true},
	} {
		accs := mk(c.n, c.his, c.pcs, c.thinks)
		p := packOne(accs)
		got := [...]bool{p.addrs != nil, p.hiIdx != nil, p.pcIdx8 != nil, p.pcIdx16 != nil, p.think != nil, p.thinkIdx != nil}
		want := [...]bool{c.addrs, c.hiIdx, c.pcIdx8, c.pcIdx16, c.think, c.thinkIdx}
		if got != want {
			t.Errorf("%s: full addrs, hi index, pc8, pc16, full think, think index = %v, want %v", c.name, got, want)
		}
		if (p.addrs == nil) != (p.lo != nil) || (p.think == nil) != (p.thinkDict != nil) {
			t.Errorf("%s: column stored both packed and at full width, or neither", c.name)
		}
		if full := fullWidthBytes(c.n, c.pcs); p.memBytes() > full {
			t.Errorf("%s: packed block takes %d bytes, full width %d", c.name, p.memBytes(), full)
		}
		bt := NewBlockTrace(accs)
		for i, a := range bt.Accesses() {
			if a != accs[i] {
				t.Fatalf("%s: access %d = %+v, want %+v", c.name, i, a, accs[i])
			}
		}
	}
	// The suite's shapes pack to 5.3-7.5 bytes per access: one 4 GB
	// segment and one think value at the low end, three segments, 65 PCs
	// and two think values at the high end.
	for _, c := range []struct {
		his, pcs, thinks int
		max              float64
	}{{1, 20, 1, 5.3}, {3, 65, 2, 7.5}} {
		if p := packOne(mk(BlockCap, c.his, c.pcs, c.thinks)); float64(p.memBytes())/BlockCap > c.max {
			t.Errorf("%+v: block packs to %.2f bytes/access, want <= %.1f", c, float64(p.memBytes())/BlockCap, c.max)
		}
	}
}

// TestBlockTraceNeverLarger pins that packing moves no block boundary and
// grows no block over randomAccesses' scattered 44-bit addresses and 300
// think values, where both columns stay at full width.
func TestBlockTraceNeverLarger(t *testing.T) {
	for _, n := range []int{1, 63, BlockCap - 1, BlockCap, 4*BlockCap + 1} {
		in := randomAccesses(12, n)
		bt := NewBlockTrace(in)
		if want := (n + BlockCap - 1) / BlockCap; bt.NumBlocks() != want {
			t.Fatalf("n=%d: NumBlocks = %d, want %d", n, bt.NumBlocks(), want)
		}
		full := 0
		for i := range bt.blocks {
			p := &bt.blocks[i]
			full += fullWidthBytes(p.n, len(p.pcDict))
		}
		if bt.MemBytes() > full {
			t.Fatalf("n=%d: MemBytes = %d, full width %d", n, bt.MemBytes(), full)
		}
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
	// Copies own their storage: rewriting the appended block afterwards
	// leaves the trace as it was.
	var own Block
	for _, a := range in[:BlockCap] {
		own.Append(a)
	}
	cp := &BlockTrace{}
	cp.AppendBlock(&own)
	own.Addrs[0], own.PCDict[0], own.Think[0], own.WriteBits[0] = 1, 2, 3, ^uint64(0)
	for i, a := range cp.Accesses() {
		if a != in[i] {
			t.Fatalf("AppendBlock aliased the source block: access %d = %+v, want %+v", i, a, in[i])
		}
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

// TestLimitBlocksMatchesPerAccessLimit pins the block-native limiter
// against the accesses' prefix at limits that cut a block mid-word, over
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
		want := accs[:min(limit, len(accs))]

		bt := NewBlockTrace(accs)
		r := NewReader(bytes.NewReader(writeTrace(t, accs)))
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
