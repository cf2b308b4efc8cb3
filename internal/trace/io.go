package trace

// Binary trace formats. Traces are generated once (cmd/tracegen) and
// replayed against many predictor configurations, the way the paper
// analyzes one FLEXUS trace per workload under every predictor (§5.1).
// Both formats open with the same header:
//
//	header:  "STEMSTRC" | uint32 version | uint32 reserved
//
// Version 1 is the legacy fixed-width record stream (24 bytes/access).
// Reader still decodes it; Writer no longer emits it:
//
//	record:  uint64 addr | uint64 pc | uint16 think | uint8 flags | 5 pad
//	flags:   bit0 = write, bit1 = dependent
//
// Version 2, the format Writer emits, is the columnar block format: the
// trace is a sequence of frames, one per Block (≤ BlockCap accesses), each
// laid out column by column so the shared structure compresses —
// addresses as zigzag-varint deltas from the previous access (carried
// across frames), PCs through a per-frame dictionary, flags as bitsets:
//
//	frame:  uvarint n                  accesses in the frame (1..BlockCap)
//	        uvarint d                  PC dictionary size (1..n)
//	        d × uvarint pc             the dictionary, first-use order
//	        n × uvarint pcIdx          dictionary index per access
//	        n × svarint addrDelta      addr[i] - addr[i-1] (zigzag)
//	        n × uvarint think
//	        ceil(n/8) write-flag bytes (LSB-first)
//	        ceil(n/8) dep-flag bytes   (LSB-first)
//
// A clean EOF at a frame boundary ends the trace. On the synthetic suite
// v2 averages ~4–6 bytes/access versus v1's 24 (see tracegen -stats).

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"stems/internal/mem"
)

const (
	traceMagic  = "STEMSTRC"
	traceV1     = 1
	traceV2     = 2
	recordBytes = 8 + 8 + 2 + 1 + 5
)

const (
	flagWrite = 1 << 0
	flagDep   = 1 << 1
)

// ErrBadTrace reports a malformed trace stream.
var ErrBadTrace = errors.New("trace: malformed trace file")

// Writer streams accesses to an io.Writer in the v2 format.
type Writer struct {
	w     *bufio.Writer
	n     uint64
	wrote bool

	// The pending frame and the running address predictor.
	pending  Block
	prevAddr uint64
	scratch  []byte
}

// NewWriter creates a Writer; the header is emitted on the first Write.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16)}
}

func (w *Writer) header() error {
	if w.wrote {
		return nil
	}
	w.wrote = true
	if _, err := w.w.WriteString(traceMagic); err != nil {
		return err
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], traceV2)
	_, err := w.w.Write(hdr[:])
	return err
}

// Write appends one access record.
func (w *Writer) Write(a Access) error {
	if err := w.header(); err != nil {
		return err
	}
	w.pending.Append(a)
	w.n++
	if w.pending.Full() {
		return w.writeFrame(&w.pending)
	}
	return nil
}

// WriteAll appends every access of a slice.
func (w *Writer) WriteAll(accs []Access) error {
	for _, a := range accs {
		if err := w.Write(a); err != nil {
			return err
		}
	}
	return nil
}

// WriteBlock appends every access of a block. With no partial frame
// pending, the block is encoded as one frame directly.
func (w *Writer) WriteBlock(b *Block) error {
	if w.pending.N == 0 {
		if err := w.header(); err != nil {
			return err
		}
		w.n += uint64(b.N)
		return w.writeFrame(b)
	}
	for i := 0; i < b.N; i++ {
		if err := w.Write(b.At(i)); err != nil {
			return err
		}
	}
	return nil
}

// writeFrame encodes one block as a v2 frame and resets the pending block
// if that is what was written.
func (w *Writer) writeFrame(b *Block) error {
	if b.N == 0 {
		return nil
	}
	buf := w.scratch[:0]
	buf = binary.AppendUvarint(buf, uint64(b.N))
	buf = binary.AppendUvarint(buf, uint64(len(b.PCDict)))
	for _, pc := range b.PCDict {
		buf = binary.AppendUvarint(buf, pc)
	}
	for _, idx := range b.PCIdx[:b.N] {
		buf = binary.AppendUvarint(buf, uint64(idx))
	}
	prev := w.prevAddr
	for _, addr := range b.Addrs[:b.N] {
		buf = binary.AppendVarint(buf, int64(addr-prev))
		prev = addr
	}
	w.prevAddr = prev
	for _, th := range b.Think[:b.N] {
		buf = binary.AppendUvarint(buf, uint64(th))
	}
	buf = appendFlagBytes(buf, b.WriteBits, b.N)
	buf = appendFlagBytes(buf, b.DepBits, b.N)
	w.scratch = buf[:0]
	if _, err := w.w.Write(buf); err != nil {
		return err
	}
	if b == &w.pending {
		w.pending.Reset()
	}
	return nil
}

// appendFlagBytes packs the first n bits of a bitset word slice into
// ceil(n/8) LSB-first bytes.
func appendFlagBytes(buf []byte, words []uint64, n int) []byte {
	for i := 0; i < n; i += 8 {
		var byt byte
		for j := 0; j < 8 && i+j < n; j++ {
			k := i + j
			if words[k>>6]&(1<<(uint(k)&63)) != 0 {
				byt |= 1 << uint(j)
			}
		}
		buf = append(buf, byt)
	}
	return buf
}

// Flush writes buffered data, any pending frame, and the header (for
// empty traces).
func (w *Writer) Flush() error {
	if err := w.header(); err != nil {
		return err
	}
	if w.pending.N > 0 {
		if err := w.writeFrame(&w.pending); err != nil {
			return err
		}
	}
	return w.w.Flush()
}

// Count returns the number of records written.
func (w *Writer) Count() uint64 { return w.n }

// Reader replays a binary trace of either format version as a
// BlockSource.
type Reader struct {
	r       *bufio.Reader
	err     error
	opened  bool
	version uint32
	n       uint64

	// v2 state: the current decoded frame and the running address.
	cur      Block
	prevAddr uint64
}

// NewReader wraps an io.Reader holding a binary trace.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 1<<16)}
}

func (r *Reader) open() error {
	if r.opened {
		return nil
	}
	r.opened = true
	var hdr [len(traceMagic) + 8]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		return fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	if string(hdr[:len(traceMagic)]) != traceMagic {
		return fmt.Errorf("%w: bad magic", ErrBadTrace)
	}
	r.version = binary.LittleEndian.Uint32(hdr[len(traceMagic):])
	if r.version != traceV1 && r.version != traceV2 {
		return fmt.Errorf("%w: unsupported version %d", ErrBadTrace, r.version)
	}
	return nil
}

// Version returns the format version, valid after the first read.
func (r *Reader) Version() int { return int(r.version) }

// NextBlock implements BlockSource. On a v2 trace a whole frame is decoded
// and handed out without copying; on a v1 trace up to BlockCap records are
// decoded into b. After the stream ends (or errors), Err reports any
// failure other than a clean EOF.
func (r *Reader) NextBlock(b *Block) bool {
	if r.err != nil {
		return false
	}
	if err := r.open(); err != nil {
		r.err = err
		return false
	}
	if r.version == traceV2 {
		if !r.readFrame() {
			return false
		}
		b.aliasFrom(&r.cur)
	} else {
		r.readRecords(b)
	}
	r.n += uint64(b.N)
	return b.N > 0
}

// readRecords decodes up to BlockCap v1 records into b.
func (r *Reader) readRecords(b *Block) {
	b.Reset()
	var rec [recordBytes]byte
	for b.N < BlockCap {
		if _, err := io.ReadFull(r.r, rec[:]); err != nil {
			if err != io.EOF {
				r.err = fmt.Errorf("%w: truncated record: %v", ErrBadTrace, err)
			}
			return
		}
		b.Append(Access{
			Addr:  mem.Addr(binary.LittleEndian.Uint64(rec[0:])),
			PC:    binary.LittleEndian.Uint64(rec[8:]),
			Think: binary.LittleEndian.Uint16(rec[16:]),
			Write: rec[18]&flagWrite != 0,
			Dep:   rec[18]&flagDep != 0,
		})
	}
}

// readFrame decodes the next v2 frame into r.cur. It returns false on
// clean EOF or error.
func (r *Reader) readFrame() bool {
	r.cur.Reset()
	n64, err := binary.ReadUvarint(r.r)
	if err != nil {
		if err != io.EOF {
			r.err = fmt.Errorf("%w: frame header: %v", ErrBadTrace, err)
		}
		return false
	}
	n := int(n64)
	if n <= 0 || n > BlockCap {
		r.err = fmt.Errorf("%w: frame of %d accesses", ErrBadTrace, n64)
		return false
	}
	d64, err := binary.ReadUvarint(r.r)
	if err != nil {
		r.err = fmt.Errorf("%w: dictionary size: %v", ErrBadTrace, err)
		return false
	}
	d := int(d64)
	if d <= 0 || d > n {
		r.err = fmt.Errorf("%w: dictionary of %d PCs in a %d-access frame", ErrBadTrace, d64, n)
		return false
	}
	b := &r.cur
	for i := 0; i < d; i++ {
		pc, err := binary.ReadUvarint(r.r)
		if err != nil {
			r.err = fmt.Errorf("%w: truncated dictionary: %v", ErrBadTrace, err)
			return false
		}
		b.PCDict = append(b.PCDict, pc)
	}
	for i := 0; i < n; i++ {
		idx, err := binary.ReadUvarint(r.r)
		if err != nil {
			r.err = fmt.Errorf("%w: truncated PC indexes: %v", ErrBadTrace, err)
			return false
		}
		if idx >= uint64(d) {
			r.err = fmt.Errorf("%w: PC index %d out of dictionary range %d", ErrBadTrace, idx, d)
			return false
		}
		b.PCIdx = append(b.PCIdx, uint16(idx))
	}
	addr := r.prevAddr
	for i := 0; i < n; i++ {
		delta, err := binary.ReadVarint(r.r)
		if err != nil {
			r.err = fmt.Errorf("%w: truncated addresses: %v", ErrBadTrace, err)
			return false
		}
		addr += uint64(delta)
		b.Addrs = append(b.Addrs, addr)
	}
	r.prevAddr = addr
	for i := 0; i < n; i++ {
		th, err := binary.ReadUvarint(r.r)
		if err != nil {
			r.err = fmt.Errorf("%w: truncated think column: %v", ErrBadTrace, err)
			return false
		}
		if th > 1<<16-1 {
			r.err = fmt.Errorf("%w: think value %d exceeds uint16", ErrBadTrace, th)
			return false
		}
		b.Think = append(b.Think, uint16(th))
	}
	var ok bool
	if b.WriteBits, ok = r.readFlagBits(b.WriteBits, n); !ok {
		return false
	}
	if b.DepBits, ok = r.readFlagBits(b.DepBits, n); !ok {
		return false
	}
	b.N = n
	return true
}

// readFlagBits reads ceil(n/8) flag bytes into bitset words.
func (r *Reader) readFlagBits(words []uint64, n int) ([]uint64, bool) {
	words = words[:0]
	for i := 0; i < n; i += 8 {
		byt, err := r.r.ReadByte()
		if err != nil {
			r.err = fmt.Errorf("%w: truncated flags: %v", ErrBadTrace, err)
			return words, false
		}
		if i&63 == 0 {
			words = append(words, 0)
		}
		words[i>>6] |= uint64(byt) << (uint(i) & 63)
	}
	return words, true
}

// Err returns the first error encountered (nil on clean EOF).
func (r *Reader) Err() error { return r.err }

// Count returns the number of records read so far.
func (r *Reader) Count() uint64 { return r.n }
