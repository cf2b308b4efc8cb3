package core

import (
	"math/bits"

	"stems/internal/flat"
	"stems/internal/mem"
)

// ReconStats counts placement outcomes during reconstruction. §4.3 reports
// that searching at most two slots forward/backward places 99% of
// addresses, 92% in their original location; the ablation benchmark checks
// the same ratios on our workloads.
type ReconStats struct {
	PlacedExact uint64 // landed in the intended slot
	PlacedNear  uint64 // displaced within the search window
	Dropped     uint64 // no free slot within the window
	Windows     uint64 // reconstruction windows produced
	Entries     uint64 // RMOB entries consumed
	SpatialHits uint64 // RMOB entries whose spatial lookup found a pattern
}

// Reconstructor rebuilds a total predicted miss order from the RMOB's
// temporal skeleton and the PST's spatial sequences (Figure 5). Temporal
// entries are placed first, spaced by their deltas; each entry's spatial
// sequence is then interleaved into the gaps its delta reserved.
type Reconstructor struct {
	pst      *PST
	rmob     *RMOB
	bufSlots int
	search   int

	// Reusable window storage: the slot buffer, the window-level dedup
	// state, and the output buffer Window hands back. filled counts valid
	// slots so a full buffer short-circuits the collision search.
	//
	// Dedup is a per-region offset bitmap rather than a per-block hash
	// set: duplicates can only arise between blocks of the same 32-block
	// region, and every block placed from one RMOB entry shares that
	// entry's region — so one region probe covers the entry's temporal
	// placement and its whole spatial expansion, replacing a hash per
	// placed block with a hash per consumed entry.
	slots      []mem.Addr
	valid      []uint64 // occupancy bitmap over slots
	filled     int
	regionBits *flat.U64Table[regionCell]
	out        []mem.Addr

	// Batch state: Window gathers the RMOB entries of one window into one
	// probe array, resolving each entry's PST lookup through the dedup
	// scratch as it goes (the table's hash index is probed once
	// per distinct key), then reconstructs by streaming over the resolved
	// probes. Deferred work queues let the batch pay once per distinct
	// key or region for what the entry-at-a-time loop paid per entry:
	//
	//   - touchQ:  PST recency. N lookups leave the LRU ordered by each
	//     key's last occurrence, so one Touch per distinct key, applied
	//     in ascending last-occurrence order, lands the identical state.
	//   - notifyQ: onRegion. The consumer folds notifications into a
	//     region-keyed last-writer-wins LRU, so one callback per distinct
	//     region, in ascending last-notification order, folds to the
	//     identical state.
	//
	// Both queues are probe-index buckets: slot i holds the pending
	// action whose last occurrence (so far) is probe i, moved forward as
	// later occurrences arrive, then drained in index order. Nothing
	// observes PST or consumer state mid-window, so the deferral is
	// invisible.
	//
	// The placement loop caches one expansion template per key *group*
	// (dense ids assigned to the distinct keys of a window): templates
	// live in the arena, tmplOff/tmplLen index it per group. Keys recur
	// about three times per window on the synthetic suite — interleaved,
	// rarely back to back — so two of every three template builds and
	// PST index probes are amortized away.
	dedup    *keyDedup
	arena    []expElem
	tmplOff  []int32
	tmplLen  []int32
	tmplMask []uint32
	touchQ   []int32
	notifyQ  []int32
	cells    []*regionCell

	stats ReconStats
}

// regionCell is the per-window state of one region: the offset dedup
// bitmap plus the deferred-notification record (the region, the last
// spatial key seen, and the probe index of that last sighting, +1 so the
// zero value means "none yet"). mark distinguishes an initialized cell
// from the zero value Ref inserts.
type regionCell struct {
	region mem.Addr
	kLast  uint64
	lastP1 int32
	bits   uint32
	mark   uint32
	ci     int32 // index into rc.cells
}

// expElem is one confident element of a resolved pattern, precomputed into
// the form the placement loop consumes: the prefix-summed slot advance
// from the trigger slot, the byte offset from the trigger block, and the
// region-offset dedup bit. Everything about an element except the trigger
// slot and block is determined by (lookup key, entry), so one template
// serves every probe of the key's group.
type expElem struct {
	spOff int32
	dOff  int32
	bit   uint32
}

// placeDrop marks a fully occupied search neighborhood in placeTab2.
const placeDrop = int8(127)

// placeTab2 drives the §4.3 collision search for the default distance of
// two: index by the 5-bit occupancy neighborhood around the intended slot
// (bit i = slot-2+i occupied) and get the displacement of the first free
// candidate in check order 0, +1, −1, +2, −2 — one table lookup instead
// of up to five dependent bit tests.
var placeTab2 = func() (t [32]int8) {
	for nb := range t {
		t[nb] = placeDrop
		for _, d := range [...]int8{0, 1, -1, 2, -2} {
			if nb&(1<<(2+d)) == 0 {
				t[nb] = d
				break
			}
		}
	}
	return
}()

// NewReconstructor creates a reconstructor with the given buffer size
// (paper: 256 entries) and collision search distance (paper: 2).
func NewReconstructor(pst *PST, rmob *RMOB, bufSlots, search int) *Reconstructor {
	if bufSlots <= 0 {
		panic("core: non-positive reconstruction buffer")
	}
	if search < 0 {
		search = 0
	}
	return &Reconstructor{
		pst:      pst,
		rmob:     rmob,
		bufSlots: bufSlots,
		search:   search,
		slots:    make([]mem.Addr, bufSlots),
		valid:    make([]uint64, (bufSlots+63)/64),
		// At most one region per consumed entry, and a window consumes at
		// most bufSlots entries (slots strictly advance), so the bitmap
		// table never grows and Ref pointers stay valid window-long.
		regionBits: flat.NewU64Table[regionCell](bufSlots),
		out:        make([]mem.Addr, 0, bufSlots),
		// Slots strictly advance entry to entry, so a window consumes at
		// most bufSlots RMOB entries: the dedup scratch and the deferred
		// queues never grow. The arena starts big enough for typical
		// windows and grows (amortized, then stable) if a window holds
		// unusually many long templates.
		dedup:    newKeyDedup(bufSlots),
		arena:    make([]expElem, 0, 8*bufSlots),
		tmplOff:  make([]int32, bufSlots),
		tmplLen:  make([]int32, bufSlots),
		tmplMask: make([]uint32, bufSlots),
		touchQ:   make([]int32, bufSlots),
		notifyQ:  make([]int32, bufSlots),
		cells:    make([]*regionCell, 0, bufSlots),
	}
}

// Stats returns cumulative reconstruction statistics.
func (rc *Reconstructor) Stats() ReconStats { return rc.stats }

// Window reconstructs one buffer of predicted addresses starting from the
// RMOB position *pos, advancing *pos past every entry consumed. For each
// region some consumed entry hit a spatial pattern in, onRegion (if
// non-nil) is called once with the region and the last lookup index used
// for it, calls ordered by that last use — the state the AGT keeps for
// spatial-only stream detection (§4.2) is region-keyed and last-writer-
// wins, so this folds to the same state as a call per entry. The returned
// blocks are in predicted total miss order.
//
// The returned slice is the reconstructor's reusable output buffer: it is
// valid until the next Window call. Callers that keep the addresses (the
// stream engine copies them into queue storage) need no copy.
//
// The reconstruction is batched (§4.3 collision search and dedup
// semantics unchanged, results byte-identical to the entry-at-a-time
// form): one fused pass walks the ring, resolves each entry's PST lookup
// through the key-dedup scratch (the table's hash index is probed
// once per distinct key), and places temporal entries and spatial
// expansions from per-group templates, while recency updates and region
// notifications ride the deferred queues to one replay per distinct key
// or region.
//
// A block already placed anywhere in the window is not placed twice: the
// RMOB records spatial *misses* that the PST may nevertheless predict on
// this pass, and both sources would otherwise consume two slots for one
// future access, cascading collisions.
func (rc *Reconstructor) Window(pos *uint64, onRegion func(region mem.Addr, k Key)) []mem.Addr {
	// The RMOB bounds are loop-invariant — no append happens mid-window —
	// so the ring is read directly with the At validity check hoisted out
	// of the loop.
	rmob := rc.rmob
	ring := rmob.Entries()
	lo, hi := rmob.Live()
	p := *pos
	if p < lo || p >= hi {
		return nil
	}
	kd := rc.dedup
	bufSlots := rc.bufSlots
	t := rc.pst.table
	kd.epoch++
	if kd.epoch == 0 { // stamp wraparound: invalidate everything once
		clear(kd.scratch)
		kd.epoch = 1
	}
	epoch := kd.epoch
	scratch := kd.scratch
	smask := uint32(len(scratch) - 1)
	shift := kd.sshift
	touchQ := rc.touchQ
	notifyQ := rc.notifyQ
	cells := rc.cells[:0]
	arena := rc.arena[:0]
	tmplOff := rc.tmplOff
	clear(rc.valid)
	rc.regionBits.Reset() // pointer-free cells; occupancy-only clear
	useCtrs, thr := rc.pst.useCounters, rc.pst.threshold
	search := rc.search
	fast2 := search == 2
	valid := rc.valid
	slots := rc.slots
	filled := 0
	var (
		dedup       *regionCell
		dedupRegion mem.Addr
		haveDedup   bool

		placedExact, placedNear, dropped, spatialHits uint64
	)
	n := int32(0)
	ngroups := int32(0)
	prevTrig := 0
	first := true
	var prevKey uint64
	var prevEnt *PSTEntry
	prevGrp := int32(-1)
	prevJ := int32(-1)
	for ; p < hi; p++ {
		e := ring[rmob.Slot(p)]
		slot := 0
		if !first {
			slot = prevTrig + 1 + int(e.Delta)
			if slot >= bufSlots {
				break // start of the next window; leave for the next call
			}
		}
		first = false
		prevTrig = slot
		i := n
		n++
		block := e.Block
		// One region probe serves the temporal placement and the whole
		// spatial expansion: every block below is in block's region.
		region := block.Region()
		if !haveDedup || region != dedupRegion {
			dedup = rc.regionBits.Ref(uint64(region))
			if dedup.mark == 0 {
				*dedup = regionCell{region: region, mark: 1, ci: int32(len(cells))}
				cells = append(cells, dedup)
			}
			dedupRegion, haveDedup = region, true
		}
		if bit := uint32(1) << uint(block.RegionOffset()); dedup.bits&bit == 0 {
			free := -1
			if valid[slot>>6]&(1<<(uint(slot)&63)) == 0 {
				free = slot
			} else if filled < bufSlots {
				if fast2 && uint(slot-2) <= uint(bufSlots-5) {
					w := slot - 2
					nb := valid[w>>6] >> (uint(w) & 63)
					if uint(w)&63 > 59 {
						nb |= valid[w>>6+1] << (64 - uint(w)&63)
					}
					if d := placeTab2[nb&31]; d != placeDrop {
						free = slot + int(d)
					}
				} else {
					for d := 1; d <= search; d++ {
						if s := slot + d; s < bufSlots && valid[s>>6]&(1<<(uint(s)&63)) == 0 {
							free = s
							break
						}
						if s := slot - d; s >= 0 && valid[s>>6]&(1<<(uint(s)&63)) == 0 {
							free = s
							break
						}
					}
				}
			}
			if free < 0 {
				// Buffer full or collision search exhausted.
				dropped++
			} else {
				dedup.bits |= bit
				slots[free] = block
				valid[free>>6] |= 1 << (uint(free) & 63)
				filled++
				if free == slot {
					placedExact++
				} else {
					placedNear++
				}
			}
		}
		// Resolve the entry's PST lookup through the key-dedup scratch:
		// one index probe per distinct key (Find is read-only, so
		// skipping repeats changes nothing), the key's pending recency
		// bump riding forward in touchQ to its latest occurrence.
		k := e.PC<<mem.RegionBlockBits | uint64(block.RegionOffset())
		var ent *PSTEntry
		var grp int32
		if prevGrp >= 0 && k == prevKey {
			ent, grp = prevEnt, prevGrp
			if prevJ >= 0 {
				s := &scratch[prevJ]
				touchQ[s.last] = 0
				touchQ[i] = prevJ + 1
				s.last = i
			}
		} else {
			for j := uint32(k*0x9E3779B97F4A7C15>>shift) & smask; ; j = (j + 1) & smask {
				s := &scratch[j]
				if s.stamp != epoch {
					// First occurrence of k in this window: the one
					// real index probe.
					node := int32(-1)
					if fn, ok := t.Find(k); ok {
						node = int32(fn)
						ent = t.RefAt(fn)
					}
					grp = ngroups
					ngroups++
					*s = scratchSlot{key: k, ent: ent, node: node, grp: grp, last: i, stamp: epoch}
					if node >= 0 {
						touchQ[i] = int32(j) + 1
						prevJ = int32(j)
					} else {
						prevJ = -1 // a missing key never bumps recency
					}
					// Build the group's expansion template on first
					// sight: confident, in-region elements only, with
					// the slot advance prefix-summed over the full
					// sequence (low-confidence elements still advance
					// the cursor). In bit-vector mode every stored
					// element predicts itself, so the counter filter
					// applies only in counter mode. The template
					// depends on (key, entry) alone, both fixed per
					// group for the window.
					start := int32(len(arena))
					msk := uint32(0)
					if ent != nil {
						keyOff := int(k & (mem.RegionBlocks - 1))
						sp := int32(0)
						for _, el := range ent.Sequence() {
							sp += 1 + int32(el.Delta)
							if useCtrs && ent.counterAt(el.Offset) < thr {
								continue
							}
							abs := keyOff + int(el.Offset)
							if uint(abs) >= mem.RegionBlocks {
								continue // defensive: never predict outside the region
							}
							msk |= 1 << uint(abs)
							arena = append(arena, expElem{
								spOff: sp,
								dOff:  int32(el.Offset) * mem.BlockSize,
								bit:   1 << uint(abs),
							})
						}
					}
					tmplOff[grp] = start
					rc.tmplLen[grp] = int32(len(arena)) - start
					rc.tmplMask[grp] = msk
					break
				}
				if s.key == k {
					ent = s.ent
					grp = s.grp
					if s.node >= 0 {
						touchQ[s.last] = 0
						touchQ[i] = int32(j) + 1
						s.last = i
						prevJ = int32(j)
					} else {
						prevJ = -1
					}
					break
				}
			}
			prevKey, prevEnt, prevGrp = k, ent, grp
		}
		if ent == nil {
			continue
		}
		spatialHits++
		if onRegion != nil {
			// Defer: only the region's last (key, order) sighting
			// matters to the region-keyed consumer. Ride it forward.
			if lp := dedup.lastP1; lp != 0 {
				notifyQ[lp-1] = 0
			}
			notifyQ[i] = dedup.ci + 1
			dedup.lastP1 = i + 1
			dedup.kLast = k
		}
		// A repeated key whose template offsets are all deduped already
		// (the common shape: the same trigger recurring in one region)
		// would skip every element — elide the whole walk. Elements cut
		// off at the window edge place nothing either way, so the full
		// mask is a safe over-approximation.
		if dedup.bits&rc.tmplMask[grp] == rc.tmplMask[grp] {
			continue
		}
		off := tmplOff[grp]
		for _, x := range arena[off : off+rc.tmplLen[grp]] {
			// spOff is strictly increasing, so the first out-of-window
			// element ends the expansion exactly like the sequential scan.
			sp := slot + int(x.spOff)
			if sp >= bufSlots {
				break
			}
			if dedup.bits&x.bit == 0 {
				b := mem.Addr(int64(block) + int64(x.dOff))
				free := -1
				if valid[sp>>6]&(1<<(uint(sp)&63)) == 0 {
					free = sp
				} else if filled < bufSlots {
					if fast2 && uint(sp-2) <= uint(bufSlots-5) {
						w := sp - 2
						nb := valid[w>>6] >> (uint(w) & 63)
						if uint(w)&63 > 59 {
							nb |= valid[w>>6+1] << (64 - uint(w)&63)
						}
						if d := placeTab2[nb&31]; d != placeDrop {
							free = sp + int(d)
						}
					} else {
						for d := 1; d <= search; d++ {
							if s := sp + d; s < bufSlots && valid[s>>6]&(1<<(uint(s)&63)) == 0 {
								free = s
								break
							}
							if s := sp - d; s >= 0 && valid[s>>6]&(1<<(uint(s)&63)) == 0 {
								free = s
								break
							}
						}
					}
				}
				if free < 0 {
					dropped++
				} else {
					dedup.bits |= x.bit
					slots[free] = b
					valid[free>>6] |= 1 << (uint(free) & 63)
					filled++
					if free == sp {
						placedExact++
					} else {
						placedNear++
					}
				}
			}
		}
	}
	rc.stats.Entries += p - *pos
	*pos = p

	// Deferred recency replay: one Touch per distinct present key, in
	// ascending last-occurrence order. A run of Gets leaves the LRU
	// ordered by last occurrence, so this lands the byte-identical state
	// (nothing reads the table's order mid-window). The drain also
	// re-zeroes touchQ for the next window.
	for i := int32(0); i < n; i++ {
		if j := touchQ[i]; j != 0 {
			touchQ[i] = 0
			t.Touch(int(scratch[j-1].node))
		}
	}
	// Deferred notifications: one call per distinct region, ascending by
	// last sighting. The drain re-zeroes notifyQ for the next window.
	if onRegion != nil {
		for i := int32(0); i < n; i++ {
			if c := notifyQ[i]; c != 0 {
				notifyQ[i] = 0
				cell := cells[c-1]
				onRegion(cell.region, Key{
					PC:     cell.kLast >> mem.RegionBlockBits,
					Offset: int(cell.kLast & (mem.RegionBlocks - 1)),
				})
			}
		}
	}
	rc.cells = cells
	rc.arena = arena
	rc.filled = filled
	rc.stats.PlacedExact += placedExact
	rc.stats.PlacedNear += placedNear
	rc.stats.Dropped += dropped
	rc.stats.SpatialHits += spatialHits
	rc.stats.Windows++
	rc.out = rc.out[:0]
	for w, word := range rc.valid {
		for word != 0 {
			i := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			rc.out = append(rc.out, rc.slots[i])
		}
	}
	return rc.out
}
