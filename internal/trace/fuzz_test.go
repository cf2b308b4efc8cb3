package trace

import (
	"bytes"
	"encoding/binary"
	"testing"

	"stems/internal/mem"
)

// FuzzReader ensures arbitrary bytes never panic the trace reader and that
// all failures surface as ErrBadTrace (or clean EOF), whichever format
// version the header claims.
func FuzzReader(f *testing.F) {
	f.Add(encodeV1([]Access{{Addr: 4096, PC: 7}}))
	var validV2 bytes.Buffer
	w2 := NewWriter(&validV2)
	_ = w2.Write(Access{Addr: 4096, PC: 7, Dep: true})
	_ = w2.Write(Access{Addr: 128, PC: 9, Write: true, Think: 12})
	_ = w2.Flush()
	f.Add(validV2.Bytes())
	f.Add([]byte("STEMSTRC"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		var b Block
		n := 0
		for r.NextBlock(&b) {
			for i := 0; i < b.N; i++ {
				_ = b.At(i) // every access of a yielded block must decode
			}
			n += b.N
			if n > 1<<20 {
				t.Fatal("reader yielded implausibly many records")
			}
		}
		_ = r.Err() // must not panic; may be nil or ErrBadTrace
	})
}

// FuzzV1V2RoundTrip decodes the fuzz input into an access sequence,
// encodes it in both format versions (v1 with the tests' encoder, v2 with
// Writer), and asserts both decode back bit-exactly through NextBlock —
// the lossless v1↔v2 contract.
func FuzzV1V2RoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22})
	f.Add(bytes.Repeat([]byte{0xff}, 200))
	f.Fuzz(func(t *testing.T, data []byte) {
		const rec = 19 // addr 8 + pc 8 + think 2 + flags 1
		var in []Access
		for len(data) >= rec && len(in) < 3*BlockCap {
			in = append(in, Access{
				Addr:  mem.Addr(binary.LittleEndian.Uint64(data[0:])),
				PC:    binary.LittleEndian.Uint64(data[8:]),
				Think: binary.LittleEndian.Uint16(data[16:]),
				Write: data[18]&1 != 0,
				Dep:   data[18]&2 != 0,
			})
			data = data[rec:]
		}
		var v2 bytes.Buffer
		w := NewWriter(&v2)
		if w.WriteAll(in) != nil || w.Flush() != nil {
			t.Fatal("v2 write failed")
		}
		for version, enc := range map[int][]byte{traceV1: encodeV1(in), traceV2: v2.Bytes()} {
			r := NewReader(bytes.NewReader(enc))
			out := collectBlocks(r)
			if r.Err() != nil {
				t.Fatalf("v%d read: %v", version, r.Err())
			}
			if len(out) != len(in) {
				t.Fatalf("v%d: %d records, want %d", version, len(out), len(in))
			}
			for i := range in {
				if out[i] != in[i] {
					t.Fatalf("v%d record %d: got %+v, want %+v", version, i, out[i], in[i])
				}
			}
		}
	})
}

// fuzzRecord is the size of one access record in FuzzBlockTraceRoundTrip
// input: op, flags, address, PC, think.
const fuzzRecord = 20

// encodeFuzzAccesses is the inverse of the FuzzBlockTraceRoundTrip record
// decoding: each access becomes one record carrying op ops[i%len(ops)].
func encodeFuzzAccesses(accs []Access, ops ...byte) []byte {
	out := make([]byte, 0, len(accs)*fuzzRecord)
	for i, a := range accs {
		var rec [fuzzRecord]byte
		rec[0] = ops[i%len(ops)]
		if a.Write {
			rec[1] |= 1
		}
		if a.Dep {
			rec[1] |= 2
		}
		binary.LittleEndian.PutUint64(rec[2:], uint64(a.Addr))
		binary.LittleEndian.PutUint64(rec[10:], a.PC)
		binary.LittleEndian.PutUint16(rec[18:], a.Think)
		out = append(out, rec[:]...)
	}
	return out
}

// wideAccesses returns n accesses whose every block holds more than 256
// distinct address high halves, PCs and think values, plus the extreme
// addresses 0 and 2^64-1.
func wideAccesses(n int) []Access {
	out := randomAccesses(31, n)
	for i := range out {
		out[i].Addr = mem.Addr(uint64(i%300)<<32 | uint64(out[i].Addr)&(1<<32-1))
		out[i].PC = uint64(i % 290)
		out[i].Think = uint16(i % 310)
	}
	out[0].Addr, out[n/2].Addr, out[n-1].Addr = 0, ^mem.Addr(0), ^mem.Addr(0)
	return out
}

// blockSizes models the block boundaries BlockTrace has always drawn: an
// access opens a new block only when the tail block is full or absent, and
// AppendBlock onto a full or absent tail keeps the appended block whole.
type blockSizes []int

func (s *blockSizes) append() {
	if len(*s) == 0 || (*s)[len(*s)-1] == BlockCap {
		*s = append(*s, 0)
	}
	(*s)[len(*s)-1]++
}

func (s *blockSizes) appendBlock(n int) {
	if len(*s) == 0 || (*s)[len(*s)-1] == BlockCap {
		*s = append(*s, n)
		return
	}
	for i := 0; i < n; i++ {
		s.append()
	}
}

// checkBlockTrace compares bt with the accesses and block sizes it should
// hold, through Accesses and through two cursors replaying side by side.
func checkBlockTrace(t *testing.T, stage string, bt *BlockTrace, want []Access, sizes blockSizes) {
	t.Helper()
	if bt.Len() != len(want) || bt.NumBlocks() != len(sizes) {
		t.Fatalf("%s: Len %d, NumBlocks %d; want %d, %d", stage, bt.Len(), bt.NumBlocks(), len(want), len(sizes))
	}
	got := bt.Accesses()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: Accesses()[%d] = %+v, want %+v", stage, i, got[i], want[i])
		}
	}
	var b, b2 Block
	c, c2 := bt.Blocks(), bt.Blocks()
	pos := 0
	for k := 0; c.NextBlock(&b); k++ {
		if !c2.NextBlock(&b2) {
			t.Fatalf("%s: second cursor ended at block %d", stage, k)
		}
		if k >= len(sizes) || b.N != sizes[k] || b2.N != b.N {
			t.Fatalf("%s: block %d holds %d accesses, want %d", stage, k, b.N, sizes[min(k, len(sizes)-1)])
		}
		writes := false
		for i := 0; i < b.N; i++ {
			a := b.At(i)
			if a != want[pos+i] || b2.At(i) != a {
				t.Fatalf("%s: block %d access %d = %+v, want %+v", stage, k, i, a, want[pos+i])
			}
			writes = writes || a.Write
		}
		if b.HasWrites() != writes {
			t.Fatalf("%s: block %d HasWrites = %v, want %v", stage, k, b.HasWrites(), writes)
		}
		pos += b.N
	}
	if pos != len(want) || c2.NextBlock(&b2) {
		t.Fatalf("%s: cursors replayed %d accesses, want %d", stage, pos, len(want))
	}
	for i := range bt.blocks {
		p := &bt.blocks[i]
		if full := fullWidthBytes(p.n, len(p.pcDict)); p.memBytes() > full {
			t.Fatalf("%s: packed block %d takes %d bytes, more than its %d-byte full-width form", stage, i, p.memBytes(), full)
		}
	}
}

// FuzzBlockTraceRoundTrip feeds an access sequence into a BlockTrace
// through Append, Append after Seal and AppendBlock, and checks that the
// packed trace replays every access exactly, keeps the block boundaries of
// the full-width layout, and never stores a block larger than that
// layout. Each 20-byte record is one access; its op byte chooses how the
// access enters: 0 Append; 1 gathered into a Block that is handed to
// AppendBlock before any other op (or when full); 2 AppendBlock of the
// gathered block, then Append; 3 Seal (the first eight times, checking
// the trace on both sides of the first two), then Append.
func FuzzBlockTraceRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeFuzzAccesses([]Access{{Addr: ^mem.Addr(0), PC: ^uint64(0), Think: 65535, Write: true}, {}}, 0, 3))
	wide := wideAccesses(BlockCap + 300)
	f.Add(encodeFuzzAccesses(wide, 0))
	f.Add(encodeFuzzAccesses(wide, 1))
	f.Add(encodeFuzzAccesses(wide, 1, 1, 1, 2, 0, 0, 3, 1))
	narrow := randomAccesses(32, BlockCap+513)
	for i := range narrow {
		narrow[i].Addr &= 1<<33 - 1
		narrow[i].Think = uint16(i % 2)
	}
	f.Add(encodeFuzzAccesses(narrow, 0))
	f.Add(encodeFuzzAccesses(narrow, 1, 1, 1, 1, 1, 1, 1, 3))
	f.Fuzz(func(t *testing.T, data []byte) {
		bt := &BlockTrace{}
		var want []Access
		var sizes blockSizes
		var pending Block
		seals := 0
		flush := func() {
			if pending.N > 0 {
				bt.AppendBlock(&pending)
				sizes.appendBlock(pending.N)
				pending.Reset()
			}
		}
		for ; len(data) >= fuzzRecord && len(want) < 3*BlockCap; data = data[fuzzRecord:] {
			a := Access{
				Write: data[1]&1 != 0,
				Dep:   data[1]&2 != 0,
				Addr:  mem.Addr(binary.LittleEndian.Uint64(data[2:])),
				PC:    binary.LittleEndian.Uint64(data[10:]),
				Think: binary.LittleEndian.Uint16(data[18:]),
			}
			want = append(want, a)
			op := data[0] & 3
			if op == 1 {
				if pending.Full() {
					flush()
				}
				pending.Append(a)
				continue
			}
			flush()
			// Checking at every Seal would make a run quadratic in its
			// length, and each Append after Seal rebuilds the append-side
			// scratch; the first few Seals show both.
			if op == 3 && seals < 8 {
				if seals < 2 {
					checkBlockTrace(t, "before Seal", bt, want[:len(want)-1], sizes)
				}
				bt.Seal()
				if seals < 2 {
					checkBlockTrace(t, "after Seal", bt, want[:len(want)-1], sizes)
				}
				seals++
			}
			bt.Append(a)
			sizes.append()
		}
		flush()
		checkBlockTrace(t, "unsealed", bt, want, sizes)
		bt.Seal()
		checkBlockTrace(t, "sealed", bt, want, sizes)

		var whole blockSizes
		for range want {
			whole.append()
		}
		checkBlockTrace(t, "NewBlockTrace", NewBlockTrace(want), want, whole)
	})
}
