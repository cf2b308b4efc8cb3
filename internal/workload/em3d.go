package workload

import (
	"math/rand"

	"stems/internal/trace"
)

// GenerateEM3D models the em3d electromagnetic kernel (Table 1: 3M nodes,
// degree 2 — scaled down to fit the trace budget while preserving the
// structure). Each iteration walks the node list in a fixed order, but the
// nodes are scattered randomly over memory, and each node's record spans a
// node-specific set of blocks.
//
// §5.5 uses em3d to show where hybrid reconstruction falls short: "the
// overall temporal sequence is perfectly repetitive, but jumps randomly
// over memory. Thus, with spatial prediction, the same trigger PC leads to
// many different spatial patterns" — TMS is essentially perfect, SMS cannot
// disambiguate, and STeMS lands in between. The generator encodes exactly
// that: one visit PC for every node, per-node block patterns.
func GenerateEM3D(seed int64, n int) []trace.Access {
	rng := rand.New(rand.NewSource(seed))

	const (
		nodes     = 24 << 10 // each in its own region: ~48MB graph
		pcVisit   = uint64(0x4000)
		thinkCost = 40
	)

	// Node placement: one node per region, regions shuffled (the random
	// jumps). Node i's record covers 2-5 blocks at node-specific offsets
	// drawn from a small shared pool; the *first* offset is always the
	// node header, so the spatial lookup index collides across nodes. The
	// partially-overlapping patterns make the PST's counters oscillate
	// around the prediction threshold: the predictor sometimes commits to
	// a wrong pattern, which is precisely the §5.5 em3d failure mode
	// ("reconstruction is unable to choose the 'best' pattern to use for
	// each trigger, so coverage falls between that of TMS and SMS").
	pool := newPagePool(rng, nodes, heapBase)
	const offsetPool = 6 // node payload offsets come from blocks 1..6
	patterns := make([][]int, nodes)
	for i := range patterns {
		k := 2 + rng.Intn(4)
		offs := uniqueInts(rng, k-1, offsetPool)
		pattern := []int{0}
		for _, o := range offs {
			pattern = append(pattern, o+1)
		}
		patterns[i] = pattern
	}

	// The traversal order is fixed at build time and identical every
	// iteration (the list is not modified between relaxation steps).
	order := rng.Perm(nodes)

	// A step visits one node: its block 0 and at most offsetPool payload
	// blocks.
	out := newTrace(n, 1+offsetPool)
	for len(out) < n {
		for _, node := range order {
			for i, off := range patterns[node] {
				out = append(out, trace.Access{
					Addr:  pool.addr(node, off),
					PC:    pcVisit + uint64(i), // same code for every node
					Dep:   i == 0,              // list pointer chase
					Think: thinkCost,
				})
			}
			if len(out) >= n {
				break
			}
		}
	}
	return out[:n]
}
