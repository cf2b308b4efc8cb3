package trace

import (
	"stems/internal/flat"
	"stems/internal/mem"
)

// BlockCap is the number of accesses one Block holds when full. The value
// balances batching (the replay kernel amortizes its setup over a block)
// against locality (a block's columns together stay well inside L2).
const BlockCap = 4096

// bitWords returns the number of 64-bit words covering n flag bits.
func bitWords(n int) int { return (n + 63) / 64 }

// Block is a columnar (structure-of-arrays) batch of up to BlockCap
// accesses: the native currency of the replay pipeline. Instead of a slice
// of 24-byte Access structs, a block stores each field as its own column,
// with the two booleans packed into bitsets and the PCs dictionary-indexed
// (a block holds at most BlockCap accesses, so at most BlockCap distinct
// PCs — a uint16 index always suffices). Every column is full width, so
// the batched kernel (sim.Machine.RunBlocks) iterates the columns directly;
// a full block costs ~12.4 bytes per access versus 24 for []Access. A
// BlockTrace keeps its blocks narrower still and widens each one as its
// cursor hands it out.
//
// The exported columns are read-only for consumers; construct blocks
// through Append (or the Blocks adapter), which maintains the dictionary
// and bitset invariants.
type Block struct {
	// N is the number of valid accesses in the block.
	N int
	// Addrs holds the byte address column.
	Addrs []uint64
	// PCDict is the block's PC dictionary; PCIdx[i] indexes into it.
	PCDict []uint64
	// PCIdx holds the dictionary index column.
	PCIdx []uint16
	// Think holds the think-time column.
	Think []uint16
	// WriteBits and DepBits pack the Write/Dep flags, bit i of word i/64.
	WriteBits []uint64
	DepBits   []uint64

	// shared marks a block whose columns alias storage owned elsewhere
	// (a BlockTrace or its cursor, or a Reader); Reset detaches them
	// before reuse.
	shared bool
	// pcLookup inverts PCDict during appends — a flat probe table, not a
	// Go map, because the Blocks adapter runs Append once per access of a
	// custom Source.
	pcLookup *flat.U64Table[uint16]
}

// Reset empties the block for reuse. Columns aliasing shared storage are
// detached; owned storage is retained and overwritten by later Appends.
func (b *Block) Reset() {
	if b.shared {
		b.Addrs, b.PCDict, b.PCIdx, b.Think, b.WriteBits, b.DepBits = nil, nil, nil, nil, nil, nil
		b.shared = false
	}
	b.N = 0
	b.Addrs = b.Addrs[:0]
	b.PCDict = b.PCDict[:0]
	b.PCIdx = b.PCIdx[:0]
	b.Think = b.Think[:0]
	b.WriteBits = b.WriteBits[:0]
	b.DepBits = b.DepBits[:0]
	if b.pcLookup != nil {
		b.pcLookup.Reset()
	}
}

// Full reports whether the block holds BlockCap accesses.
func (b *Block) Full() bool { return b.N >= BlockCap }

// Append adds one access to the block. It reports false (leaving the block
// unchanged) when the block is already full.
func (b *Block) Append(a Access) bool {
	if b.shared {
		panic("trace: Append to a shared (aliased) Block; Reset it first")
	}
	if b.N >= BlockCap {
		return false
	}
	if b.pcLookup == nil {
		// ≤ BlockCap accesses means ≤ BlockCap distinct PCs: the table
		// never grows, so appends stay allocation-free after warm-up.
		b.pcLookup = flat.NewU64Table[uint16](BlockCap)
	}
	if cap(b.Addrs) == 0 {
		// Size the fixed-width columns for a full block up front: blocks
		// almost always fill, and exact sizing avoids the ~15% cap
		// overshoot of append's growth curve on the resident columns.
		b.Addrs = make([]uint64, 0, BlockCap)
		b.PCIdx = make([]uint16, 0, BlockCap)
		b.Think = make([]uint16, 0, BlockCap)
		b.WriteBits = make([]uint64, 0, bitWords(BlockCap))
		b.DepBits = make([]uint64, 0, bitWords(BlockCap))
	}
	idx, ok := b.pcLookup.Get(a.PC)
	if !ok {
		idx = uint16(len(b.PCDict))
		b.PCDict = append(b.PCDict, a.PC)
		b.pcLookup.Put(a.PC, idx)
	}
	if b.N&63 == 0 {
		b.WriteBits = append(b.WriteBits, 0)
		b.DepBits = append(b.DepBits, 0)
	}
	if a.Write {
		b.WriteBits[b.N>>6] |= 1 << (uint(b.N) & 63)
	}
	if a.Dep {
		b.DepBits[b.N>>6] |= 1 << (uint(b.N) & 63)
	}
	b.Addrs = append(b.Addrs, uint64(a.Addr))
	b.PCIdx = append(b.PCIdx, idx)
	b.Think = append(b.Think, a.Think)
	b.N++
	return true
}

// At decodes the i-th access.
func (b *Block) At(i int) Access {
	return Access{
		Addr:  mem.Addr(b.Addrs[i]),
		PC:    b.PCDict[b.PCIdx[i]],
		Write: b.WriteBits[i>>6]&(1<<(uint(i)&63)) != 0,
		Dep:   b.DepBits[i>>6]&(1<<(uint(i)&63)) != 0,
		Think: b.Think[i],
	}
}

// HasWrites reports whether any access in the block is a store — the
// batched kernel runs a leaner read-only loop over blocks without stores.
func (b *Block) HasWrites() bool {
	for _, w := range b.WriteBits {
		if w != 0 {
			return true
		}
	}
	return false
}

// aliasFrom makes b a read-only view of src's columns without copying the
// column data.
func (b *Block) aliasFrom(src *Block) {
	b.N = src.N
	b.Addrs = src.Addrs
	b.PCDict = src.PCDict
	b.PCIdx = src.PCIdx
	b.Think = src.Think
	b.WriteBits = src.WriteBits
	b.DepBits = src.DepBits
	b.shared = true
	b.pcLookup = nil
}

// BlockSource is the batched counterpart of Source: NextBlock fills *b
// with the next batch of accesses and reports whether any were produced.
// The filled block may alias storage owned by the source; treat it as
// read-only and do not use it after the next NextBlock call.
// Implementations are not safe for concurrent use.
type BlockSource interface {
	NextBlock(b *Block) bool
}

// Blocks adapts a per-access Source to a BlockSource, batching up to
// BlockCap accesses into each block. A Source that also implements
// BlockSource is returned unwrapped.
func Blocks(src Source) BlockSource {
	if bs, ok := src.(BlockSource); ok {
		return bs
	}
	return &sourceBlocks{src: src}
}

type sourceBlocks struct {
	src Source
}

// NextBlock implements BlockSource, draining up to BlockCap accesses.
func (s *sourceBlocks) NextBlock(b *Block) bool {
	b.Reset()
	var a Access
	for b.N < BlockCap && s.src.Next(&a) {
		b.Append(a)
	}
	return b.N > 0
}

// LimitBlocks truncates a block stream after n accesses. Whole blocks pass
// through untouched; the block that crosses the limit is shortened in
// place of being repacked. Its columns are only re-sliced, never written —
// they may alias a BlockTrace, its cursor's scratch or a Reader frame —
// except the flag bitsets, which are copied so the bits past the limit
// read as clear (HasWrites scans whole words).
func LimitBlocks(bs BlockSource, n int) BlockSource {
	return &limitBlocks{bs: bs, left: n}
}

type limitBlocks struct {
	bs   BlockSource
	left int
}

// NextBlock implements BlockSource.
func (l *limitBlocks) NextBlock(b *Block) bool {
	if l.left <= 0 || !l.bs.NextBlock(b) {
		return false
	}
	if b.N > l.left {
		b.truncate(l.left)
	}
	l.left -= b.N
	return true
}

// truncate shortens b to its first n accesses without writing into its
// column storage: the fixed-width columns are re-sliced, and the flag
// bitsets are replaced by masked copies. The result aliases storage b does
// not own, so it is marked shared and detached by the next Reset.
func (b *Block) truncate(n int) {
	w := bitWords(n)
	b.WriteBits = maskedWords(b.WriteBits[:w], n)
	b.DepBits = maskedWords(b.DepBits[:w], n)
	b.Addrs, b.PCIdx, b.Think = b.Addrs[:n], b.PCIdx[:n], b.Think[:n]
	b.N = n
	b.shared = true
}

// maskedWords copies a bitset of n valid bits with the bits past n cleared.
func maskedWords(words []uint64, n int) []uint64 {
	out := append([]uint64(nil), words...)
	if r := n & 63; r != 0 {
		out[len(out)-1] &= 1<<uint(r) - 1
	}
	return out
}
