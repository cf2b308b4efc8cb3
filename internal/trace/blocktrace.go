package trace

import "stems/internal/flat"

// BlockTrace is a complete trace held in columnar blocks — the compact
// resident form cached by Arena and produced by workload generators.
//
// Blocks are built at full width (Block.Append) and packed when they fill
// or the trace is sealed: each column of a sealed block takes the
// narrowest encoding its data allows (see packedBlock), so a resident
// suite trace costs 5.3-6.3 bytes/access instead of the Block's ~12.4 and
// []Access's 24 (BenchmarkTraceMemory measures it). Packing never moves a
// block boundary and never makes a block larger than its full-width form.
// The cursor (Blocks) widens each packed block back into full-width
// columns as it hands it out.
type BlockTrace struct {
	blocks []packedBlock
	// pk is the append-side state while the trace grows: the full-width
	// tail block and the packing scratch. Seal releases it.
	pk *packer
	n  int
}

// NewBlockTrace builds a BlockTrace from an access slice. The slice is
// only read.
func NewBlockTrace(accs []Access) *BlockTrace {
	t := &BlockTrace{}
	for _, a := range accs {
		t.Append(a)
	}
	t.Seal()
	return t
}

// Append adds one access to the trace. Appending after Seal continues a
// partial tail block, as if the trace had never been sealed.
func (t *BlockTrace) Append(a Access) {
	pk := t.packer()
	if pk.open.N == 0 && t.lastPartial() {
		t.reopen()
	}
	pk.open.Append(a)
	t.n++
	if pk.open.Full() {
		t.blocks = append(t.blocks, pk.pack(&pk.open))
		pk.open.Reset()
	}
}

// AppendBlock appends a copy of b's accesses. When the trace's tail block
// is full (or absent) b is packed straight from its columns — no
// per-access dictionary work — the fast path for frame-at-a-time loaders
// over v2 traces; otherwise the accesses are appended individually.
func (t *BlockTrace) AppendBlock(b *Block) {
	if b.N == 0 {
		return
	}
	if pk := t.packer(); pk.open.N == 0 && !t.lastPartial() {
		t.blocks = append(t.blocks, pk.pack(b))
		t.n += b.N
		return
	}
	for i := 0; i < b.N; i++ {
		t.Append(b.At(i))
	}
}

// packer returns the append-side state, creating it after NewBlockTrace's
// zero value or a Seal.
func (t *BlockTrace) packer() *packer {
	if t.pk == nil {
		t.pk = newPacker()
	}
	return t.pk
}

// lastPartial reports whether the last packed block has room left.
func (t *BlockTrace) lastPartial() bool {
	return len(t.blocks) > 0 && t.blocks[len(t.blocks)-1].n < BlockCap
}

// reopen moves the partial last packed block back into the open block so
// appends continue it.
func (t *BlockTrace) reopen() {
	last := len(t.blocks) - 1
	var b Block
	var cur blockTraceSource
	cur.unpack(&t.blocks[last], &b)
	t.blocks[last] = packedBlock{}
	t.blocks = t.blocks[:last]
	for i := 0; i < b.N; i++ {
		t.pk.open.Append(b.At(i))
	}
}

// Seal packs the partial tail block and releases the append-side state
// (the full-width open block, its PC dictionary inverse and the packing
// scratch). Callers should Seal once the trace is done growing; appending
// after Seal still works.
func (t *BlockTrace) Seal() {
	if t.pk != nil && t.pk.open.N > 0 {
		t.blocks = append(t.blocks, t.pk.pack(&t.pk.open))
	}
	t.pk = nil
}

// Len returns the total number of accesses.
func (t *BlockTrace) Len() int { return t.n }

// NumBlocks returns the number of blocks.
func (t *BlockTrace) NumBlocks() int {
	if t.pk != nil && t.pk.open.N > 0 {
		return len(t.blocks) + 1
	}
	return len(t.blocks)
}

// Blocks returns a cursor replaying the trace block by block. Each block
// it hands out is widened into scratch the cursor allocates once and
// reuses, or aliases the trace's storage where a column is stored at full
// width; either way it is valid until the next NextBlock. Many cursors may
// replay one trace concurrently as long as none mutates it.
func (t *BlockTrace) Blocks() BlockSource { return &blockTraceSource{t: t} }

// Accesses decodes the whole trace into a fresh []Access.
func (t *BlockTrace) Accesses() []Access {
	out := make([]Access, 0, t.n)
	var b Block
	for cur := t.Blocks(); cur.NextBlock(&b); {
		for j := 0; j < b.N; j++ {
			out = append(out, b.At(j))
		}
	}
	return out
}

// MemBytes returns the resident column storage in bytes — the footprint
// number behind the arena's compaction win.
func (t *BlockTrace) MemBytes() int {
	total := 0
	for i := range t.blocks {
		total += t.blocks[i].memBytes()
	}
	if t.pk != nil {
		b := &t.pk.open
		total += 8*cap(b.Addrs) + 8*cap(b.PCDict) + 2*cap(b.PCIdx) +
			2*cap(b.Think) + 8*cap(b.WriteBits) + 8*cap(b.DepBits)
	}
	return total
}

// packedBlock is one sealed block of a BlockTrace in the narrowest
// encoding its data allows, chosen column by column when the block is
// packed:
//
//   - addresses: the low halves as a uint32 column (lo) plus the high
//     halves through a dictionary (hi, indexed by hiIdx) — or the full
//     uint64 column (addrs);
//   - PCs: the block's dictionary with a uint8 index column (pcIdx8) —
//     or the uint16 column (pcIdx16) when the dictionary passes 256
//     entries;
//   - think times: a dictionary (thinkDict, indexed by thinkIdx) — or the
//     full uint16 column (think);
//   - the Write/Dep bitsets as they are.
//
// A dictionary holds at most 256 entries, and an index column is omitted
// (nil) when its dictionary holds one. A column is encoded through a
// dictionary only when that makes it smaller, so a packed block is never
// larger than the full-width Block it came from.
type packedBlock struct {
	n int

	addrs []uint64
	lo    []uint32
	hi    []uint32
	hiIdx []uint8

	pcDict  []uint64
	pcIdx8  []uint8
	pcIdx16 []uint16

	think     []uint16
	thinkDict []uint16
	thinkIdx  []uint8

	writeBits, depBits []uint64
}

// memBytes returns the block's column storage in bytes.
func (p *packedBlock) memBytes() int {
	return 8*cap(p.addrs) + 4*cap(p.lo) + 4*cap(p.hi) + cap(p.hiIdx) +
		8*cap(p.pcDict) + cap(p.pcIdx8) + 2*cap(p.pcIdx16) +
		2*cap(p.think) + 2*cap(p.thinkDict) + cap(p.thinkIdx) +
		8*cap(p.writeBits) + 8*cap(p.depBits)
}

// maxDict is the largest dictionary a uint8 index column can address.
const maxDict = 256

// packer is the append-side state of a growing BlockTrace: the open tail
// block, built at full width, and the scratch blocks are packed with —
// the dictionary of the column being encoded, its inverse, and its index
// column.
type packer struct {
	open   Block
	lookup *flat.U64Table[uint8]
	dict   []uint64
	idx    [BlockCap]uint8
}

func newPacker() *packer {
	return &packer{lookup: flat.NewU64Table[uint8](maxDict), dict: make([]uint64, 0, maxDict)}
}

// encode builds the dictionary (p.dict) and index column (p.idx) of the
// values v>>shift over vals, in first-occurrence order. It reports false
// as soon as the dictionary would pass maxDict entries.
func encode[T uint64 | uint16](p *packer, vals []T, shift uint) bool {
	p.dict = p.dict[:0]
	p.lookup.Reset()
	var last uint64
	var lastIdx uint8
	for i, v := range vals {
		k := uint64(v) >> shift
		if i == 0 || k != last {
			j, ok := p.lookup.Get(k)
			if !ok {
				if len(p.dict) == maxDict {
					return false
				}
				j = uint8(len(p.dict))
				p.dict = append(p.dict, k)
				p.lookup.Put(k, j)
			}
			last, lastIdx = k, j
		}
		p.idx[i] = lastIdx
	}
	return true
}

// dictBytes is the size of an n-value column stored as a d-entry
// dictionary of w-byte values plus its index column.
func dictBytes(n, d, w int) int {
	if d == 1 {
		return w
	}
	return d*w + n
}

// index returns a copy of the index column encode built for n values, or
// nil when the dictionary holds one entry.
func (p *packer) index(n int) []uint8 {
	if len(p.dict) == 1 {
		return nil
	}
	return clone(p.idx[:n])
}

// clone copies s into a slice of exactly its length and capacity
// (slices.Clone rounds the capacity up to the allocator's size class,
// which MemBytes would count).
func clone[T any](s []T) []T { return append(make([]T, 0, len(s)), s...) }

// pack returns b's accesses in their narrowest encoding. b is only read.
func (p *packer) pack(b *Block) packedBlock {
	n := b.N
	pb := packedBlock{
		n:         n,
		pcDict:    clone(b.PCDict),
		writeBits: clone(b.WriteBits[:bitWords(n)]),
		depBits:   clone(b.DepBits[:bitWords(n)]),
	}

	addrs := b.Addrs[:n]
	if encode(p, addrs, 32) && 4*n+dictBytes(n, len(p.dict), 4) < 8*n {
		pb.lo = make([]uint32, n)
		for i, a := range addrs {
			pb.lo[i] = uint32(a)
		}
		pb.hi = make([]uint32, len(p.dict))
		for i, h := range p.dict {
			pb.hi[i] = uint32(h)
		}
		pb.hiIdx = p.index(n)
	} else {
		pb.addrs = clone(addrs)
	}

	switch d := len(b.PCDict); {
	case d == 1: // no index column
	case d <= maxDict:
		pb.pcIdx8 = make([]uint8, n)
		for i, x := range b.PCIdx[:n] {
			pb.pcIdx8[i] = uint8(x)
		}
	default:
		pb.pcIdx16 = clone(b.PCIdx[:n])
	}

	think := b.Think[:n]
	if encode(p, think, 0) && dictBytes(n, len(p.dict), 2) < 2*n {
		pb.thinkDict = make([]uint16, len(p.dict))
		for i, v := range p.dict {
			pb.thinkDict[i] = uint16(v)
		}
		pb.thinkIdx = p.index(n)
	} else {
		pb.think = clone(think)
	}
	return pb
}

type blockTraceSource struct {
	t *BlockTrace
	i int
	// s holds the widened columns of the current block, allocated on the
	// first block that needs it.
	s *widened
}

// widened is a cursor's full-width column scratch, plus the dictionaries
// of the current block spread over 256 entries, so a uint8 index reads
// them without a bounds check.
type widened struct {
	addrs [BlockCap]uint64
	pcIdx [BlockCap]uint16
	think [BlockCap]uint16
	hi    [maxDict]uint64
	dict  [maxDict]uint16
	// pcZero and thinkFilled record that pcIdx holds 0 and think holds
	// thinkFill throughout, so the next block with one PC or one think
	// time reuses them unchanged.
	pcZero      bool
	thinkFilled bool
	thinkFill   uint16
}

// NextBlock implements BlockSource by widening the next packed block (or
// aliasing the open tail block of an unsealed trace).
func (s *blockTraceSource) NextBlock(b *Block) bool {
	t := s.t
	switch {
	case s.i < len(t.blocks):
		s.unpack(&t.blocks[s.i], b)
	case s.i == len(t.blocks) && t.pk != nil && t.pk.open.N > 0:
		b.aliasFrom(&t.pk.open)
	default:
		return false
	}
	s.i++
	return true
}

// unpack makes b a read-only full-width view of p: columns stored at full
// width are aliased, the others are widened into the cursor's scratch.
func (s *blockTraceSource) unpack(p *packedBlock, b *Block) {
	n := p.n
	if s.s == nil && (p.addrs == nil || p.pcIdx16 == nil || p.think == nil) {
		s.s = new(widened)
	}
	w := s.s
	b.N = n
	b.PCDict = p.pcDict
	b.WriteBits, b.DepBits = p.writeBits, p.depBits
	b.shared = true
	b.pcLookup = nil

	switch {
	case p.addrs != nil:
		b.Addrs = p.addrs
	case p.hiIdx == nil:
		b.Addrs = w.addrs[:n]
		widenLo(b.Addrs, p.lo[:n], uint64(p.hi[0])<<32)
	default:
		for j, h := range p.hi {
			w.hi[j] = uint64(h) << 32
		}
		b.Addrs = w.addrs[:n]
		widenHiLo(b.Addrs, p.lo[:n], p.hiIdx[:n], &w.hi)
	}

	switch {
	case p.pcIdx16 != nil:
		b.PCIdx = p.pcIdx16
	case p.pcIdx8 == nil:
		if !w.pcZero {
			clear(w.pcIdx[:])
			w.pcZero = true
		}
		b.PCIdx = w.pcIdx[:n]
	default:
		b.PCIdx = w.pcIdx[:n]
		widenIdx(b.PCIdx, p.pcIdx8[:n])
		w.pcZero = false
	}

	switch {
	case p.think != nil:
		b.Think = p.think
	case p.thinkIdx == nil:
		if v := p.thinkDict[0]; !w.thinkFilled || w.thinkFill != v {
			for i := range w.think {
				w.think[i] = v
			}
			w.thinkFilled, w.thinkFill = true, v
		}
		b.Think = w.think[:n]
	default:
		copy(w.dict[:], p.thinkDict)
		b.Think = w.think[:n]
		lookupIdx(b.Think, p.thinkIdx[:n], &w.dict)
		w.thinkFilled = false
	}
}

// The widening loops below are unrolled: the cursor runs them once per
// access of every replay, and at one element per iteration their loop
// overhead outweighs the work.

// widenLo sets dst[i] = hi | lo[i] for the addresses of a block in one
// 4 GB segment.
func widenLo(dst []uint64, lo []uint32, hi uint64) {
	dst = dst[:len(lo)]
	i := 0
	for ; i+4 <= len(lo); i += 4 {
		l, d := lo[i:i+4:i+4], dst[i:i+4:i+4]
		d[0], d[1], d[2], d[3] = hi|uint64(l[0]), hi|uint64(l[1]), hi|uint64(l[2]), hi|uint64(l[3])
	}
	for ; i < len(lo); i++ {
		dst[i] = hi | uint64(lo[i])
	}
}

// widenHiLo sets dst[i] = hi[idx[i]] | lo[i].
func widenHiLo(dst []uint64, lo []uint32, idx []uint8, hi *[maxDict]uint64) {
	dst, idx = dst[:len(lo)], idx[:len(lo)]
	i := 0
	for ; i+4 <= len(lo); i += 4 {
		l, x, d := lo[i:i+4:i+4], idx[i:i+4:i+4], dst[i:i+4:i+4]
		d[0] = hi[x[0]] | uint64(l[0])
		d[1] = hi[x[1]] | uint64(l[1])
		d[2] = hi[x[2]] | uint64(l[2])
		d[3] = hi[x[3]] | uint64(l[3])
	}
	for ; i < len(lo); i++ {
		dst[i] = hi[idx[i]] | uint64(lo[i])
	}
}

// widenIdx sets dst[i] = idx[i].
func widenIdx(dst []uint16, idx []uint8) {
	dst = dst[:len(idx)]
	i := 0
	for ; i+8 <= len(idx); i += 8 {
		x, d := idx[i:i+8:i+8], dst[i:i+8:i+8]
		d[0], d[1], d[2], d[3] = uint16(x[0]), uint16(x[1]), uint16(x[2]), uint16(x[3])
		d[4], d[5], d[6], d[7] = uint16(x[4]), uint16(x[5]), uint16(x[6]), uint16(x[7])
	}
	for ; i < len(idx); i++ {
		dst[i] = uint16(idx[i])
	}
}

// lookupIdx sets dst[i] = dict[idx[i]].
func lookupIdx(dst []uint16, idx []uint8, dict *[maxDict]uint16) {
	dst = dst[:len(idx)]
	i := 0
	for ; i+8 <= len(idx); i += 8 {
		x, d := idx[i:i+8:i+8], dst[i:i+8:i+8]
		d[0], d[1], d[2], d[3] = dict[x[0]], dict[x[1]], dict[x[2]], dict[x[3]]
		d[4], d[5], d[6], d[7] = dict[x[4]], dict[x[5]], dict[x[6]], dict[x[7]]
	}
	for ; i < len(idx); i++ {
		dst[i] = dict[idx[i]]
	}
}
