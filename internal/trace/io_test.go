package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"

	"stems/internal/mem"
)

// encodeV1 writes accs in the fixed-width v1 format of io.go's comment:
// the header, then one 24-byte record per access. Writer emits v2 only,
// so the tests that pin v1 decoding encode their input here.
func encodeV1(accs []Access) []byte {
	out := append([]byte(traceMagic), traceV1, 0, 0, 0, 0, 0, 0, 0)
	for _, a := range accs {
		var flags byte
		if a.Write {
			flags |= flagWrite
		}
		if a.Dep {
			flags |= flagDep
		}
		out = binary.LittleEndian.AppendUint64(out, uint64(a.Addr))
		out = binary.LittleEndian.AppendUint64(out, a.PC)
		out = binary.LittleEndian.AppendUint16(out, a.Think)
		out = append(out, flags, 0, 0, 0, 0, 0)
	}
	return out
}

// roundTrip decodes in from its v1 encoding.
func roundTrip(t *testing.T, in []Access) []Access {
	t.Helper()
	r := NewReader(bytes.NewReader(encodeV1(in)))
	out := collectBlocks(r)
	if r.Err() != nil {
		t.Fatalf("reader error: %v", r.Err())
	}
	if r.Count() != uint64(len(in)) {
		t.Fatalf("reader count = %d, want %d", r.Count(), len(in))
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	in := []Access{
		{Addr: 0x1234, PC: 0xdeadbeef, Write: false, Dep: true, Think: 120},
		{Addr: 0, PC: 0, Write: true, Dep: false, Think: 0},
		{Addr: ^mem.Addr(0), PC: ^uint64(0), Write: true, Dep: true, Think: 65535},
	}
	out := roundTrip(t, in)
	if len(out) != len(in) {
		t.Fatalf("got %d records, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("record %d: got %+v, want %+v", i, out[i], in[i])
		}
	}
}

func TestEmptyTrace(t *testing.T) {
	out := roundTrip(t, nil)
	if len(out) != 0 {
		t.Fatalf("empty trace yielded %d records", len(out))
	}
}

func TestBadMagic(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte("NOTATRACE........")))
	var b Block
	if r.NextBlock(&b) {
		t.Fatal("NextBlock succeeded on garbage")
	}
	if !errors.Is(r.Err(), ErrBadTrace) {
		t.Fatalf("err = %v, want ErrBadTrace", r.Err())
	}
}

func TestTruncatedHeader(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte("STEM")))
	var b Block
	if r.NextBlock(&b) {
		t.Fatal("NextBlock succeeded on truncated header")
	}
	if !errors.Is(r.Err(), ErrBadTrace) {
		t.Fatalf("err = %v", r.Err())
	}
}

func TestTruncatedRecord(t *testing.T) {
	full := encodeV1([]Access{{Addr: 64}})
	r := NewReader(bytes.NewReader(full[:len(full)-3]))
	var b Block
	if r.NextBlock(&b) {
		t.Fatal("NextBlock succeeded on truncated record")
	}
	if !errors.Is(r.Err(), ErrBadTrace) {
		t.Fatalf("err = %v", r.Err())
	}
}

func TestWrongVersionRejected(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[len(traceMagic)] = 99 // corrupt the version field
	r := NewReader(bytes.NewReader(b))
	if r.NextBlock(&Block{}) || !errors.Is(r.Err(), ErrBadTrace) {
		t.Fatalf("version check failed: err=%v", r.Err())
	}
}

// Property: any access slice survives a round trip bit-exactly.
func TestRoundTripProperty(t *testing.T) {
	f := func(addrs []uint64, pcs []uint64, flags []uint8) bool {
		n := len(addrs)
		if len(pcs) < n {
			n = len(pcs)
		}
		if len(flags) < n {
			n = len(flags)
		}
		in := make([]Access, n)
		for i := 0; i < n; i++ {
			in[i] = Access{
				Addr:  mem.Addr(addrs[i]),
				PC:    pcs[i],
				Write: flags[i]&1 != 0,
				Dep:   flags[i]&2 != 0,
				Think: uint16(flags[i]) << 3,
			}
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if w.WriteAll(in) != nil || w.Flush() != nil {
			return false
		}
		out := collectBlocks(NewReader(&buf))
		if len(out) != len(in) {
			return false
		}
		for i := range in {
			if out[i] != in[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReaderCount(t *testing.T) {
	in := make([]Access, 17)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteAll(in); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	collectBlocks(r)
	if r.Count() != 17 {
		t.Fatalf("reader count = %d", r.Count())
	}
}
