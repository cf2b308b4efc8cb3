// Package workload provides seeded synthetic access-stream generators
// standing in for the paper's application suite (Table 1): SPECweb99 on
// Apache and Zeus, TPC-C on DB2 and Oracle, TPC-H queries 2/16/17 on DB2,
// and the em3d / ocean / sparse scientific kernels.
//
// We cannot run the commercial binaries; each generator instead encodes the
// *memory behaviour* the paper attributes to its workload — which accesses
// repeat temporally, which layouts repeat spatially, which misses are
// compulsory, and which are dependent pointer chases. DESIGN.md §5 maps
// every generator to the paper text it models.
package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"stems/internal/mem"
	"stems/internal/trace"
)

// Class groups workloads the way the paper's figures do.
type Class string

// The four workload classes of Table 1.
const (
	ClassWeb  Class = "Web"
	ClassOLTP Class = "OLTP"
	ClassDSS  Class = "DSS"
	ClassSci  Class = "Scientific"
)

// SeedStride is the spacing of derived seed progressions: seed s of a
// K-seed set is base + s*SeedStride, both for the public Runner's seed
// sets and for Figure 10's confidence-interval seeds. (7919 — the 1000th
// prime — keeps derived seeds far apart so neighboring bases never
// collide within a sweep's seed count.)
const SeedStride = 7919

// Spec describes one workload.
type Spec struct {
	// Name is the paper's label (e.g. "Apache", "Qry2", "em3d").
	Name string
	// Class is the figure grouping.
	Class Class
	// Scientific selects the deeper stream lookahead (§4.3).
	Scientific bool
	// DefaultAccesses is the trace length used by the figure harness.
	DefaultAccesses int
	// Generate produces a deterministic access trace of n references.
	Generate func(seed int64, n int) []trace.Access
}

// GenerateBlocks produces the same deterministic trace as Generate,
// compacted into columnar blocks — the form the pipeline replays and the
// arena caches. The intermediate []Access is transient; only the ~2x
// smaller BlockTrace is retained.
func (s Spec) GenerateBlocks(seed int64, n int) *trace.BlockTrace {
	return trace.NewBlockTrace(s.Generate(seed, n))
}

// Suite returns the ten workloads in the paper's figure order.
func Suite() []Spec {
	return []Spec{
		{Name: "Apache", Class: ClassWeb, DefaultAccesses: 400_000, Generate: GenerateApache},
		{Name: "Zeus", Class: ClassWeb, DefaultAccesses: 400_000, Generate: GenerateZeus},
		{Name: "DB2", Class: ClassOLTP, DefaultAccesses: 400_000, Generate: GenerateOLTPDB2},
		{Name: "Oracle", Class: ClassOLTP, DefaultAccesses: 400_000, Generate: GenerateOLTPOracle},
		{Name: "Qry2", Class: ClassDSS, DefaultAccesses: 400_000, Generate: GenerateDSSQry2},
		{Name: "Qry16", Class: ClassDSS, DefaultAccesses: 400_000, Generate: GenerateDSSQry16},
		{Name: "Qry17", Class: ClassDSS, DefaultAccesses: 400_000, Generate: GenerateDSSQry17},
		{Name: "em3d", Class: ClassSci, Scientific: true, DefaultAccesses: 600_000, Generate: GenerateEM3D},
		{Name: "ocean", Class: ClassSci, Scientific: true, DefaultAccesses: 500_000, Generate: GenerateOcean},
		{Name: "sparse", Class: ClassSci, Scientific: true, DefaultAccesses: 600_000, Generate: GenerateSparse},
	}
}

// ByName finds a workload by its paper label (case-sensitive).
func ByName(name string) (Spec, error) {
	for _, s := range Suite() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workload: unknown workload %q", name)
}

// Names lists the suite's workload names in order.
func Names() []string {
	specs := Suite()
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

// ---- shared generator machinery ----

// heapBase keeps generated addresses away from address zero (block 0 is a
// sentinel nowhere else, but a clean margin avoids accidental region -1
// arithmetic in tests).
const heapBase mem.Addr = 1 << 30

// pagePool models a buffer pool: a set of logical pages mapped to
// *scattered* physical regions, the way a DBMS buffer pool allocates each
// page to the next free frame as it is read from disk (§3, Figure 2:
// "these pages may be scattered throughout the buffer pool").
type pagePool struct {
	frames []mem.Addr // physical region base per logical page
}

// newPagePool maps n logical pages onto n shuffled physical regions.
func newPagePool(rng *rand.Rand, n int, base mem.Addr) *pagePool {
	perm := rng.Perm(n)
	frames := make([]mem.Addr, n)
	for logical, physical := range perm {
		frames[logical] = base + mem.Addr(physical)*mem.RegionSize
	}
	return &pagePool{frames: frames}
}

// addr returns the byte address of a block offset within a logical page.
func (p *pagePool) addr(page, offset int) mem.Addr {
	return p.frames[page] + mem.Addr(offset)*mem.BlockSize
}

func (p *pagePool) len() int { return len(p.frames) }

// layout is a page-type access recipe: the ordered block offsets touched
// when code of this type processes a page.
type layout struct {
	offsets []int
}

// newLayout derives a stable pseudo-random layout of k distinct offsets,
// starting at the trigger offset.
func newLayout(rng *rand.Rand, trigger, k int) layout {
	if k > mem.RegionBlocks {
		k = mem.RegionBlocks
	}
	used := map[int]bool{trigger: true}
	offsets := []int{trigger}
	for len(offsets) < k {
		o := rng.Intn(mem.RegionBlocks)
		if !used[o] {
			used[o] = true
			offsets = append(offsets, o)
		}
	}
	return layout{offsets: offsets}
}

// newTrace returns an empty trace with room for n accesses plus the most
// one generator step appends past n: generators test the length only
// between steps, so a step that starts at n-1 accesses may overshoot by
// all but one of its accesses. Sized so, the trace is allocated once.
func newTrace(n, step int) []trace.Access {
	return make([]trace.Access, 0, n+step)
}

// emit appends the layout's accesses on a page: the first (trigger) access
// optionally dependent (a pointer chase landed here), the rest independent
// (the OoO core can issue them in parallel once the page is known). jitter
// is the probability that two adjacent non-trigger accesses swap — the
// small reorderings of §5.4.
func (l layout) emit(out []trace.Access, rng *rand.Rand, pool *pagePool, page int, pc uint64, depTrigger bool, jitter float64) []trace.Access {
	offs := l.offsets
	if jitter > 0 && len(offs) > 2 {
		var buf [mem.RegionBlocks]int // newLayout caps a layout at a region
		offs = buf[:copy(buf[:], l.offsets)]
		for i := 1; i+1 < len(offs); i++ {
			if rng.Float64() < jitter {
				offs[i], offs[i+1] = offs[i+1], offs[i]
			}
		}
	}
	for i, off := range offs {
		out = append(out, trace.Access{
			Addr: pool.addr(page, off),
			PC:   pc + uint64(i), // distinct PCs per field access site
			Dep:  i == 0 && depTrigger,
		})
	}
	return out
}

// uniqueInts draws k distinct ints in [0, n).
func uniqueInts(rng *rand.Rand, k, n int) []int {
	if k > n {
		k = n
	}
	seen := make(map[int]bool, k)
	out := make([]int, 0, k)
	for len(out) < k {
		v := rng.Intn(n)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}
