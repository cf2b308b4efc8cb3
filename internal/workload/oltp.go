package workload

import (
	"math/rand"

	"stems/internal/mem"
	"stems/internal/trace"
)

// oltpParams tunes the TPC-C-like generators. The DB2 and Oracle variants
// differ the way the paper describes: both are pointer-chase heavy, but the
// Oracle configuration (1.4GB SGA, 16 clients) keeps more of its working
// set on chip and "spends only one-quarter of time on off-chip memory
// accesses" (§5.6), so its think time is higher and its hot reuse stronger.
type oltpParams struct {
	pages      int     // buffer pool size in 2KB pages
	pageTypes  int     // distinct page layouts (b-tree levels, heap, ...)
	paths      int     // recurring traversal paths (hot code/data routes)
	pathLen    int     // pages per traversal
	accPerPage int     // blocks touched per page visit
	mutateProb float64 // per-transaction chance to rewrite one path step
	noiseProb  float64 // chance of an unpredictable access between pages
	reuseProb  float64 // chance the next transaction reuses a recent path
	hotPages   int     // small set of pages revisited constantly (L2 hits)
	hotProb    float64 // chance of a hot-page access between pages
	jitter     float64 // adjacent-access swap probability (§5.4 reordering)
	think      uint16  // core cycles between accesses
}

func db2Params() oltpParams {
	return oltpParams{
		pages:      48 << 10, // 96MB buffer pool (10GB database's hot set)
		pageTypes:  8,
		paths:      150,
		pathLen:    18,
		accPerPage: 6,
		mutateProb: 0.04,
		noiseProb:  0.18,
		reuseProb:  0.90,
		hotPages:   512,
		hotProb:    0.25,
		jitter:     0.05,
		think:      90,
	}
}

func oracleParams() oltpParams {
	p := db2Params()
	p.pages = 40 << 10
	p.hotPages = 1536
	p.hotProb = 0.45
	p.think = 360 // only ~1/4 of baseline time off chip (§5.6)
	return p
}

// GenerateOLTPDB2 produces the TPC-C-on-DB2 stand-in trace.
func GenerateOLTPDB2(seed int64, n int) []trace.Access {
	return generateOLTP(db2Params(), seed, n)
}

// GenerateOLTPOracle produces the TPC-C-on-Oracle stand-in trace.
func GenerateOLTPOracle(seed int64, n int) []trace.Access {
	return generateOLTP(oracleParams(), seed, n)
}

// oltpPath is one recurring traversal: a b-tree descent plus the heap pages
// a transaction touches, each with the page type that determines its
// access layout.
type oltpPath struct {
	pages []int // logical page ids
	types []int // page type per step
}

// generateOLTP models the paper's OLTP behaviour (§2.2, §5.2): transactions
// chase pointers across buffer-pool pages along recurring paths (temporal
// correlation, best exploited by TMS), touch a type-determined layout
// within each page (spatial correlation — though these accesses are
// independent, so covering them buys little time, §5.6), and sprinkle
// unpredictable probes that no predictor covers (the "Neither" slice of
// Figure 6).
func generateOLTP(p oltpParams, seed int64, n int) []trace.Access {
	rng := rand.New(rand.NewSource(seed))
	pool := newPagePool(rng, p.pages, heapBase)

	// Page-type layouts: pages of the same type are processed by the same
	// code and share their access recipe (page ID, lock bits, slot
	// indices, data — Figure 2).
	layouts := make([]layout, p.pageTypes)
	for i := range layouts {
		layouts[i] = newLayout(rng, 0, p.accPerPage)
	}

	// Recurring traversal paths over the pool.
	paths := make([]oltpPath, p.paths)
	for i := range paths {
		paths[i] = oltpPath{
			pages: uniqueInts(rng, p.pathLen, p.pages),
			types: make([]int, p.pathLen),
		}
		for j := range paths[i].types {
			// Descents go root -> internal -> leaf -> heap: early steps use
			// low type ids (index pages), later steps the rest.
			if j < 3 {
				paths[i].types[j] = j % p.pageTypes
			} else {
				paths[i].types[j] = 3 + rng.Intn(p.pageTypes-3)
			}
		}
	}

	// Hot pages: root/lock/metadata pages that stay cache resident.
	hot := uniqueInts(rng, p.hotPages, p.pages)

	const (
		pcPageBase uint64 = 0x1000 // per-type page-processing code
		pcNoise    uint64 = 0x9000
		pcHot      uint64 = 0x9100
	)

	// A step is one page's layout, a noise access and a hot access.
	out := newTrace(n, p.accPerPage+2)
	recent := rng.Intn(p.paths)
	for len(out) < n {
		// Choose the transaction's path: mostly a recent/hot one.
		var path *oltpPath
		if rng.Float64() < p.reuseProb {
			// Small working set of paths at a time, drifting slowly.
			recent = (recent + rng.Intn(8)) % p.paths
		} else {
			recent = rng.Intn(p.paths)
		}
		path = &paths[recent]

		// Occasional mutation: the data structure changed under the path.
		if rng.Float64() < p.mutateProb {
			step := rng.Intn(len(path.pages))
			path.pages[step] = rng.Intn(p.pages)
		}

		for step, page := range path.pages {
			ptype := path.types[step]
			pc := pcPageBase + uint64(ptype)*0x100
			out = layouts[ptype].emit(out, rng, pool, page, pc, true, p.jitter)
			// Interleaved unpredictable traffic (latches, hash probes).
			if rng.Float64() < p.noiseProb {
				out = append(out, trace.Access{
					Addr: pool.addr(rng.Intn(p.pages), rng.Intn(mem.RegionBlocks)),
					PC:   pcNoise + uint64(rng.Intn(16)),
					Dep:  false,
				})
			}
			// Hot metadata the core keeps revisiting (stays on chip).
			if rng.Float64() < p.hotProb {
				out = append(out, trace.Access{
					Addr: pool.addr(hot[rng.Intn(len(hot))], rng.Intn(4)),
					PC:   pcHot,
				})
			}
			if len(out) >= n {
				break
			}
		}
	}
	out = out[:n]
	for i := range out {
		out[i].Think = p.think
	}
	return out
}
