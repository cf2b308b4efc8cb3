package core

import (
	"math/bits"

	"stems/internal/lru"
	"stems/internal/mem"
)

// Key is the spatial lookup index: trigger PC + trigger block offset within
// its region, the same code-correlated index SMS uses (§2.4, §4.2).
type Key struct {
	PC     uint64
	Offset int
}

// pack folds a Key into one machine word for the monomorphic probe table:
// the region offset occupies the low 5 bits, the PC the rest. Injective
// for any PC below 2^59 — instruction addresses are at most 57-bit virtual
// addresses on today's largest machines, and the synthetic suite's PCs are
// tiny — so table behavior is identical to keying on the struct. SMS's
// PHT (sms.Key) and Figure 8's per-index history (analysis.GenKey) pack
// their lookup indexes the same way, under the same precondition.
func (k Key) pack() uint64 {
	return k.PC<<mem.RegionBlockBits | uint64(k.Offset&(mem.RegionBlocks-1))
}

// SeqElem is one element of a spatial sequence: a block offset *relative to
// the trigger block* and the reconstruction delta — the number of global
// miss-order events interleaved since the previous access of this region
// (Figure 3).
type SeqElem struct {
	Offset int8  // relative block offset, in (-RegionBlocks, RegionBlocks)
	Delta  uint8 // interleaved foreign events before this access
}

// relRange is the number of representable relative offsets (−31..+31).
const relRange = 2*mem.RegionBlocks - 1

// PSTEntry is one pattern sequence: the latest observed access order with
// deltas, plus a 2-bit saturating counter per relative offset providing the
// hysteresis of §4.3 ("2-bit counters attain the same coverage while
// roughly halving overpredictions").
//
// The sequence is a fixed inline array (a generation records at most one
// element per region block), so entries are plain 128-byte values stored
// directly in the table — a PST lookup on the replay loop touches the
// entry without chasing a heap pointer, and the table never allocates.
type PSTEntry struct {
	seq      [mem.RegionBlocks]SeqElem
	seqLen   uint8
	Counters [relRange]uint8
}

// Sequence returns the stored spatial sequence, most recent observation
// order. The slice aliases the entry's inline storage; treat it as
// read-only and do not hold it across Train calls.
func (e *PSTEntry) Sequence() []SeqElem { return e.seq[:e.seqLen] }

// counterAt returns the saturating counter for a relative offset.
func (e *PSTEntry) counterAt(rel int8) uint8 {
	return e.Counters[int(rel)+mem.RegionBlocks-1]
}

func (e *PSTEntry) bumpCounter(rel int8, up bool) {
	i := int(rel) + mem.RegionBlocks - 1
	if up {
		if e.Counters[i] < 3 {
			e.Counters[i]++
		}
	} else if e.Counters[i] > 0 {
		e.Counters[i]--
	}
}

// PST is the pattern sequence table: a fixed-capacity LRU table of spatial
// sequences (§4.1: "upon generation termination, the pattern sequence table
// stores the observed spatial sequence"). The paper sizes it at 16K entries
// × 40B = 640KB, residing in main memory.
type PST struct {
	table *lru.U64Map[PSTEntry] // keyed by Key.pack(); entries by value
	// useCounters selects hysteresis mode; when false the latest sequence
	// is used verbatim (bit-vector-equivalent mode, for the ablation).
	useCounters bool
	threshold   uint8
	trained     uint64
}

// NewPST creates a pattern sequence table with the given entry capacity.
func NewPST(entries int, useCounters bool, threshold uint8) *PST {
	return &PST{
		table:       lru.NewU64[PSTEntry](entries),
		useCounters: useCounters,
		threshold:   threshold,
	}
}

// Train merges one finished generation's observed sequence into the table.
// Counters for observed offsets saturate upward; offsets present in the
// stored entry but absent from the new observation decay. The stored order
// and deltas always follow the most recent observation (temporal
// correlation favors recency, §2.1).
func (p *PST) Train(k Key, observed []SeqElem) {
	if len(observed) == 0 {
		return
	}
	// Mutate in place when present; recency is refreshed by the final Put.
	ent, ok := p.table.Peek(k.pack())
	if !ok {
		ent = PSTEntry{}
	}
	var seen [relRange]bool
	capped := observed
	if len(capped) > mem.RegionBlocks {
		capped = capped[:mem.RegionBlocks]
	}
	for _, el := range capped {
		seen[int(el.Offset)+mem.RegionBlocks-1] = true
		ent.bumpCounter(el.Offset, true)
	}
	// Every un-observed offset decays — the hardware updates all 32
	// counters of the entry on each generation commit (§4.3), which is
	// what lets the table forget unstable blocks.
	for i := range ent.Counters {
		if !seen[i] && ent.Counters[i] > 0 {
			ent.Counters[i]--
		}
	}
	ent.seqLen = uint8(copy(ent.seq[:], capped))
	p.table.Put(k.pack(), ent)
	p.trained++
}

// Lookup returns the stored sequence for k, nil if absent. The returned
// pointer aliases the table's storage: read-only, and valid only until
// the next Train (an insert may displace the entry).
func (p *PST) Lookup(k Key) *PSTEntry {
	ent, ok := p.table.GetRef(k.pack())
	if !ok {
		return nil
	}
	return ent
}

// LookupBatch collects the PST probes one reconstruction window generates
// so they can be resolved in a single tight pass over the table instead of
// interleaved with slot placement. The reconstructor gathers every RMOB
// entry (block, intended slot, lookup key) first, calls ResolveBatch once,
// and then reconstructs from the resolved entries — the probe loop touches
// only the table's index while the placement loop streams over one
// contiguous probe array.
//
// Beyond resolving, ResolveBatch *groups* the probes: every probe carries a
// dense group id shared by all probes with the same key, assigned in first-
// occurrence order. Windows repeat keys heavily but rarely back to back
// (measured on the synthetic suite: ~1/3 of a window's probes are unique,
// so the average key recurs three times, interleaved with others), so the
// table probe runs once per *unique* key while per-probe recency updates
// still replay exactly; callers key per-window caches (the reconstructor's
// expansion templates) by group id to get the same amortization.
//
// All storage is allocated up front; a batch used within its capacity
// never allocates.
type LookupBatch struct {
	probes []Probe

	// Key-dedup scratch: an epoch-stamped open-addressing table sized at
	// twice the probe capacity (load factor ≤ 1/2), reset per resolve by
	// bumping the epoch instead of clearing. One struct per slot keeps a
	// scratch probe to a single cache line.
	scratch []scratchSlot
	sshift  uint
	epoch   uint32
	groups  int
}

// scratchSlot is one slot of the batch's key-dedup table: the key, its
// resolved entry and LRU node, the assigned group id, the probe index of
// the key's latest occurrence (for callers that defer recency updates to
// one Touch per key), and the epoch stamp that says whether the slot
// belongs to the current resolve.
type scratchSlot struct {
	key   uint64
	ent   *PSTEntry
	node  int32
	grp   int32
	last  int32
	stamp uint32
}

// Probe is one gathered lookup: the caller's per-entry context (trigger
// block and intended reconstruction slot) riding alongside the packed key,
// and the resolved entry after ResolveBatch. One struct per entry keeps
// the gather pass to a single append and the placement pass on a single
// sequential stream.
type Probe struct {
	Block mem.Addr
	key   uint64
	Ent   *PSTEntry // resolved by ResolveBatch; nil on miss
	Slot  int32
	Grp   int32 // dense per-batch group id; probes with equal keys share it
}

// Key returns the probe's lookup key.
func (p *Probe) Key() Key {
	return Key{PC: p.key >> mem.RegionBlockBits, Offset: int(p.key & (mem.RegionBlocks - 1))}
}

// NewLookupBatch creates a batch holding up to capacity probes.
func NewLookupBatch(capacity int) *LookupBatch {
	b := &LookupBatch{probes: make([]Probe, 0, capacity)}
	b.sizeScratch(capacity)
	return b
}

// sizeScratch (re)allocates the dedup scratch for up to n probes: the next
// power of two at or above 2n, so linear probing stays short.
func (b *LookupBatch) sizeScratch(n int) {
	size := 8
	for size < 2*n {
		size <<= 1
	}
	b.scratch = make([]scratchSlot, size)
	b.sshift = uint(64 - bits.TrailingZeros(uint(size)))
	b.epoch = 0
}

// Reset empties the batch for reuse.
func (b *LookupBatch) Reset() { b.probes = b.probes[:0] }

// Add queues one lookup with its placement context. Results are available
// after ResolveBatch.
func (b *LookupBatch) Add(k Key, block mem.Addr, slot int32) {
	b.probes = append(b.probes, Probe{Block: block, key: k.pack(), Slot: slot})
}

// Len returns the number of queued probes.
func (b *LookupBatch) Len() int { return len(b.probes) }

// Groups returns the number of distinct keys in the batch, valid after
// ResolveBatch. Probe.Grp values are dense in [0, Groups()).
func (b *LookupBatch) Groups() int { return b.groups }

// Probes returns the queued probes in gather order; entries are resolved
// after ResolveBatch. The slice aliases the batch's storage and is valid
// until the next Reset.
func (b *LookupBatch) Probes() []Probe { return b.probes }

// ResolveBatch resolves every queued probe against the table in one pass
// and assigns group ids (see LookupBatch). The table's hash index is probed
// once per unique key; recency updates replay per probe in gather order, so
// the LRU state after ResolveBatch is byte-identical to a sequential Lookup
// per key (the index probe is read-only, so skipping a repeat changes
// nothing; a repeat Touch of a key just looked up is skipped as the exact
// no-op it is only when the repeats are adjacent).
func (p *PST) ResolveBatch(b *LookupBatch) {
	t := p.table
	probes := b.probes
	if 2*len(probes) > len(b.scratch) {
		b.sizeScratch(len(probes))
	}
	b.epoch++
	if b.epoch == 0 { // stamp wraparound: invalidate everything once
		clear(b.scratch)
		b.epoch = 1
	}
	epoch := b.epoch
	scratch := b.scratch
	mask := uint32(len(scratch) - 1)
	shift := b.sshift
	ngroups := int32(0)
	var prevKey uint64
	var prevEnt *PSTEntry
	prevGrp := int32(-1)
	for i := range probes {
		k := probes[i].key
		if prevGrp >= 0 && k == prevKey {
			probes[i].Ent = prevEnt
			probes[i].Grp = prevGrp
			continue
		}
		var ent *PSTEntry
		var grp int32
		for j := uint32(k*0x9E3779B97F4A7C15>>shift) & mask; ; j = (j + 1) & mask {
			s := &scratch[j]
			if s.stamp != epoch {
				// First occurrence of k in this batch: the one real probe.
				node := int32(-1)
				if n, ok := t.Find(k); ok {
					t.Touch(n)
					ent = t.RefAt(n)
					node = int32(n)
				}
				grp = ngroups
				ngroups++
				*s = scratchSlot{key: k, ent: ent, node: node, grp: grp, stamp: epoch}
				break
			}
			if s.key == k {
				ent = s.ent
				grp = s.grp
				if s.node >= 0 {
					t.Touch(int(s.node))
				}
				break
			}
		}
		probes[i].Ent = ent
		probes[i].Grp = grp
		prevKey, prevEnt, prevGrp = k, ent, grp
	}
	b.groups = int(ngroups)
}

// Predicts reports whether the entry (possibly nil) predicts the relative
// offset with sufficient confidence.
func (p *PST) Predicts(ent *PSTEntry, rel int8) bool {
	if ent == nil {
		return false
	}
	if !p.useCounters {
		for _, el := range ent.Sequence() {
			if el.Offset == rel {
				return true
			}
		}
		return false
	}
	return ent.counterAt(rel) >= p.threshold
}

// predictsHot is Predicts for callers that already hold a non-nil entry —
// small enough to inline into the reconstruction expansion loop.
func (p *PST) predictsHot(ent *PSTEntry, rel int8) bool {
	if p.useCounters {
		return ent.counterAt(rel) >= p.threshold
	}
	for _, el := range ent.Sequence() {
		if el.Offset == rel {
			return true
		}
	}
	return false
}

// PredictedSeq returns the elements of ent that clear the confidence
// threshold, in stored (most recent observed) order.
func (p *PST) PredictedSeq(ent *PSTEntry) []SeqElem {
	return p.AppendPredicted(nil, ent)
}

// AppendPredicted appends the confident elements of ent to dst and returns
// the extended slice — the allocation-free form of PredictedSeq for callers
// that reuse a scratch buffer.
func (p *PST) AppendPredicted(dst []SeqElem, ent *PSTEntry) []SeqElem {
	if ent == nil {
		return dst
	}
	for _, el := range ent.Sequence() {
		if p.Predicts(ent, el.Offset) {
			dst = append(dst, el)
		}
	}
	return dst
}

// Len returns the number of stored patterns.
func (p *PST) Len() int { return p.table.Len() }

// Trained returns the number of Train calls that stored a sequence.
func (p *PST) Trained() uint64 { return p.trained }
