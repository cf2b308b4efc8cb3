package trace

import (
	"bytes"
	"errors"
	"testing"

	"stems/internal/mem"
)

// writeTrace encodes in with Writer, in the v2 format.
func writeTrace(t *testing.T, in []Access) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteAll(in); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != uint64(len(in)) {
		t.Fatalf("writer count = %d, want %d", w.Count(), len(in))
	}
	return buf.Bytes()
}

func TestV2RoundTrip(t *testing.T) {
	in := append(randomAccesses(11, BlockCap+777), []Access{
		{Addr: 0x1234, PC: 0xdeadbeef, Write: false, Dep: true, Think: 120},
		{Addr: 0, PC: 0, Write: true, Dep: false, Think: 0},
		{Addr: ^mem.Addr(0), PC: ^uint64(0), Write: true, Dep: true, Think: 65535},
		{Addr: 1, PC: 42}, // huge negative delta after ^0
	}...)
	r := NewReader(bytes.NewReader(writeTrace(t, in)))
	out := collectBlocks(r)
	if r.Err() != nil {
		t.Fatalf("reader error: %v", r.Err())
	}
	if r.Version() != traceV2 {
		t.Fatalf("Version = %d, want 2", r.Version())
	}
	if len(out) != len(in) {
		t.Fatalf("got %d records, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, out[i], in[i])
		}
	}
	if r.Count() != uint64(len(in)) {
		t.Fatalf("Count = %d, want %d", r.Count(), len(in))
	}
}

func TestV2EmptyTrace(t *testing.T) {
	r := NewReader(bytes.NewReader(writeTrace(t, nil)))
	if out := collectBlocks(r); len(out) != 0 || r.Err() != nil {
		t.Fatalf("empty v2 trace: %d records, err %v", len(out), r.Err())
	}
}

// TestV1V2Equivalence is the cross-format contract: the same accesses
// encoded in both versions decode to identical records.
func TestV1V2Equivalence(t *testing.T) {
	in := randomAccesses(12, 3*BlockCap+19)
	v1 := NewReader(bytes.NewReader(encodeV1(in)))
	v2 := NewReader(bytes.NewReader(writeTrace(t, in)))
	a1 := collectBlocks(v1)
	a2 := collectBlocks(v2)
	if v1.Err() != nil || v2.Err() != nil {
		t.Fatalf("errors: v1=%v v2=%v", v1.Err(), v2.Err())
	}
	if len(a1) != len(in) || len(a2) != len(in) {
		t.Fatalf("lengths: v1=%d v2=%d want %d", len(a1), len(a2), len(in))
	}
	for i := range in {
		if a1[i] != a2[i] || a1[i] != in[i] {
			t.Fatalf("record %d: v1=%+v v2=%+v in=%+v", i, a1[i], a2[i], in[i])
		}
	}
}

func TestV2SmallerThanV1(t *testing.T) {
	in := randomAccesses(13, 2*BlockCap)
	v1 := encodeV1(in)
	v2 := writeTrace(t, in)
	if len(v2)*2 >= len(v1) {
		t.Fatalf("v2 = %d bytes vs v1 = %d; want at least 2x smaller", len(v2), len(v1))
	}
}

func TestV2NextBlockAligned(t *testing.T) {
	in := randomAccesses(14, BlockCap+99)
	r := NewReader(bytes.NewReader(writeTrace(t, in)))
	var b Block
	total := 0
	for r.NextBlock(&b) {
		for i := 0; i < b.N; i++ {
			if got := b.At(i); got != in[total+i] {
				t.Fatalf("block access %d = %+v, want %+v", total+i, got, in[total+i])
			}
		}
		total += b.N
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if total != len(in) || r.Count() != uint64(len(in)) {
		t.Fatalf("blocks covered %d accesses (Count %d), want %d", total, r.Count(), len(in))
	}
}

// TestV1NextBlock covers the batching path over the legacy record format.
func TestV1NextBlock(t *testing.T) {
	in := randomAccesses(15, BlockCap+7)
	r := NewReader(bytes.NewReader(encodeV1(in)))
	var b Block
	var got []Access
	for r.NextBlock(&b) {
		for i := 0; i < b.N; i++ {
			got = append(got, b.At(i))
		}
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if len(got) != len(in) {
		t.Fatalf("got %d accesses, want %d", len(got), len(in))
	}
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("access %d = %+v, want %+v", i, got[i], in[i])
		}
	}
}

func TestV2WriteBlockFastPath(t *testing.T) {
	in := randomAccesses(17, BlockCap+BlockCap/2)
	bt := NewBlockTrace(in)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	var b Block
	cur := bt.Blocks()
	for cur.NextBlock(&b) {
		if err := w.WriteBlock(&b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != uint64(len(in)) {
		t.Fatalf("Count = %d, want %d", w.Count(), len(in))
	}
	out := collectBlocks(NewReader(&buf))
	if len(out) != len(in) {
		t.Fatalf("read %d accesses, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("access %d = %+v, want %+v", i, out[i], in[i])
		}
	}
}

func TestV2Truncated(t *testing.T) {
	in := randomAccesses(18, 100)
	full := writeTrace(t, in)
	for _, cut := range []int{1, 5, len(full) / 2, len(full) - 1} {
		r := NewReader(bytes.NewReader(full[:len(full)-cut]))
		collectBlocks(r)
		if !errors.Is(r.Err(), ErrBadTrace) {
			t.Fatalf("cut %d: err = %v, want ErrBadTrace", cut, r.Err())
		}
	}
}
