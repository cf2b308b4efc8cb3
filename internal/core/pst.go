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

// keyDedup is the key-dedup scratch one reconstruction window resolves
// its PST lookups through (see Reconstructor.Window): an epoch-stamped
// open-addressing table sized at twice the window's entry bound (load
// factor <= 1/2), reset per window by bumping the epoch instead of
// clearing. Windows repeat keys heavily but rarely back to back (measured
// on the synthetic suite: ~1/3 of a window's lookups are unique, so the
// average key recurs three times, interleaved with others), so the table's
// hash index is probed once per unique key. One struct per slot keeps a
// scratch probe to a single cache line.
type keyDedup struct {
	scratch []scratchSlot
	sshift  uint
	epoch   uint32
}

// scratchSlot is one slot of the key-dedup table: the key, its resolved
// entry and LRU node, the assigned group id, the lookup index of the key's
// latest occurrence (for the deferred recency replay that applies one
// Touch per key), and the epoch stamp that says whether the slot belongs
// to the current window.
type scratchSlot struct {
	key   uint64
	ent   *PSTEntry
	node  int32
	grp   int32
	last  int32
	stamp uint32
}

// newKeyDedup sizes the scratch for up to n lookups per window: the next
// power of two at or above 2n, so linear probing stays short.
func newKeyDedup(n int) *keyDedup {
	size := 8
	for size < 2*n {
		size <<= 1
	}
	return &keyDedup{
		scratch: make([]scratchSlot, size),
		sshift:  uint(64 - bits.TrailingZeros(uint(size))),
	}
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

// AppendPredicted appends the elements of ent that clear the confidence
// threshold to dst, in stored (most recent observed) order, and returns
// the extended slice.
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
