// Package analysis implements the paper's trace-analysis studies: the
// joint TMS/SMS coverage classification of Figure 6, the Sequitur-based
// temporal-repetition taxonomy of Figure 7, and the intra-generation
// correlation-distance study of Figure 8. All three operate on the baseline
// off-chip read-miss stream produced by sim.CollectMissStreamBlocks.
package analysis

import (
	"sort"

	"stems/internal/mem"
	"stems/internal/trace"
)

// GenKey is the spatial lookup index (trigger PC + trigger region offset).
type GenKey struct {
	PC     uint64
	Offset int
}

// pack folds a GenKey into one word, the offset in the low 5 bits and the
// PC above them — core.Key's packing, injective for any PC below 2^59.
func (k GenKey) pack() uint64 {
	return k.PC<<mem.RegionBlockBits | uint64(k.Offset&(mem.RegionBlocks-1))
}

// Generation describes one finished spatial generation.
type Generation struct {
	Region mem.Addr
	Key    GenKey
	// Seq is the ordered list of distinct region offsets missed during the
	// generation (the trigger first).
	Seq []int
}

// genState is one active generation.
type genState struct {
	key      GenKey
	observed uint32
	seq      []int
}

// GenTracker segments the off-chip miss stream into spatial generations:
// a generation opens at the first miss to an inactive region and closes
// when one of its missed blocks is evicted from L1 (§2.4).
type GenTracker struct {
	active map[mem.Addr]*genState
	// OnEnd, if non-nil, receives every finished generation.
	OnEnd func(Generation)
}

// NewGenTracker creates an empty tracker.
func NewGenTracker() *GenTracker {
	return &GenTracker{active: make(map[mem.Addr]*genState)}
}

// OnMiss records one off-chip read miss and reports whether it was the
// trigger of a new generation.
func (t *GenTracker) OnMiss(a trace.Access) (isTrigger bool) {
	region := a.Addr.Region()
	off := a.Addr.RegionOffset()
	bit := uint32(1) << off
	if g, ok := t.active[region]; ok {
		if g.observed&bit == 0 {
			g.observed |= bit
			g.seq = append(g.seq, off)
		}
		return false
	}
	t.active[region] = &genState{
		key:      GenKey{PC: a.PC, Offset: off},
		observed: bit,
		seq:      []int{off},
	}
	return true
}

// OnEvict closes the generation containing the evicted block, if any.
func (t *GenTracker) OnEvict(block mem.Addr) {
	region := block.Region()
	g, ok := t.active[region]
	if !ok {
		return
	}
	if g.observed&(1<<block.RegionOffset()) == 0 {
		return
	}
	delete(t.active, region)
	t.emit(region, g)
}

// Flush closes every remaining generation (end of trace) in region-address
// order. Go map iteration order is randomized, and downstream consumers
// (the Figure 8 per-index sequence history) are order-sensitive when two
// open generations share a lookup index, so an ordered flush is what makes
// repeated analyses byte-identical at a fixed seed.
func (t *GenTracker) Flush() {
	regions := make([]mem.Addr, 0, len(t.active))
	for region := range t.active {
		regions = append(regions, region)
	}
	sort.Slice(regions, func(i, j int) bool { return regions[i] < regions[j] })
	for _, region := range regions {
		t.emit(region, t.active[region])
	}
	t.active = make(map[mem.Addr]*genState)
}

// Active returns the number of open generations.
func (t *GenTracker) Active() int { return len(t.active) }

func (t *GenTracker) emit(region mem.Addr, g *genState) {
	if t.OnEnd != nil {
		t.OnEnd(Generation{Region: region, Key: g.key, Seq: g.seq})
	}
}
