package workload

import (
	"math/rand"

	"stems/internal/mem"
	"stems/internal/trace"
)

// dssParams tunes the TPC-H-like decision-support generators. DSS queries
// scan large amounts of *previously untouched* data (§2.2: "TMS is mostly
// ineffective for DSS workloads, which are dominated by scans of previously
// untouched data"), through pages that all share the same layout and are
// traversed by the same code (§2.4) — the ideal case for spatial
// prediction, with every page trigger a compulsory miss.
type dssParams struct {
	scanAcc    int     // blocks read per scanned page
	jitter     float64 // intra-page reordering (Qry16 is noisier, §5.4)
	joinProb   float64 // probability of a join probe after a page
	innerPages int     // inner-relation pages (reused: some temporal reuse)
	innerProb  float64 // fraction of join probes hitting the inner relation
	hashPages  int     // hash table pages (random probes, unpredictable)
	think      uint16
}

func qry2Params() dssParams {
	return dssParams{
		scanAcc: 9, jitter: 0.04,
		joinProb: 0.5, innerPages: 3 << 10, innerProb: 0.5, hashPages: 16 << 10,
		think: 150,
	}
}

func qry16Params() dssParams {
	p := qry2Params()
	p.jitter = 0.30 // the paper's outlier in Figure 8's reordering CDF
	p.joinProb = 0.6
	return p
}

func qry17Params() dssParams {
	p := qry2Params()
	p.scanAcc = 12 // balanced scan-join: denser scan component
	p.joinProb = 0.3
	return p
}

// GenerateDSSQry2 produces the TPC-H Query 2 stand-in (join-dominated).
func GenerateDSSQry2(seed int64, n int) []trace.Access {
	return generateDSS(qry2Params(), seed, n)
}

// GenerateDSSQry16 produces the TPC-H Query 16 stand-in (join-dominated,
// noisy intra-page order).
func GenerateDSSQry16(seed int64, n int) []trace.Access {
	return generateDSS(qry16Params(), seed, n)
}

// GenerateDSSQry17 produces the TPC-H Query 17 stand-in (balanced
// scan-join).
func GenerateDSSQry17(seed int64, n int) []trace.Access {
	return generateDSS(qry17Params(), seed, n)
}

// generateDSS models a scan over fresh pages with a constant layout plus
// join traffic: probes into a reused inner relation (a little temporal
// correlation) and into scattered hash buckets (predictable by neither
// technique — Figure 6's "Neither" slice).
func generateDSS(p dssParams, seed int64, n int) []trace.Access {
	rng := rand.New(rand.NewSource(seed))

	// The scanned table: pages are consumed in logical order but placed at
	// scattered physical frames, and *never revisited* — every trigger is
	// a compulsory miss. We materialize frames lazily in chunks.
	scanLayout := newLayout(rng, 0, p.scanAcc)
	const framesPerChunk = 4096
	var frames []mem.Addr
	nextFrameBase := heapBase
	frameAt := func(i int) mem.Addr {
		for i >= len(frames) {
			perm := rng.Perm(framesPerChunk)
			for _, ph := range perm {
				frames = append(frames, nextFrameBase+mem.Addr(ph)*mem.RegionSize)
			}
			nextFrameBase += framesPerChunk * mem.RegionSize
		}
		return frames[i]
	}

	// Inner relation and hash table live in their own pools. Inner
	// lookups descend the inner relation's index: short *recurring* page
	// paths — the residual temporal correlation §5.3 observes in DSS
	// ("the leftover misses contain nearly all the temporal repetition").
	innerPool := newPagePool(rng, p.innerPages, heapBase+(1<<33))
	innerLayout := newLayout(rng, 0, 4)
	const innerPaths, innerPathLen = 48, 4
	paths := make([][]int, innerPaths)
	for i := range paths {
		paths[i] = uniqueInts(rng, innerPathLen, p.innerPages)
	}
	hashBase := heapBase + (1 << 34)

	const (
		pcScan  uint64 = 0x2000
		pcInner uint64 = 0x2800
		pcHash  uint64 = 0x2900
	)

	// A step scans one page and may walk one inner path.
	out := newTrace(n, len(scanLayout.offsets)+innerPathLen*len(innerLayout.offsets))
	scanPool := &pagePool{} // reused wrapper for the current scan page
	for page := 0; len(out) < n; page++ {
		scanPool.frames = append(scanPool.frames[:0], frameAt(page))
		out = scanLayout.emit(out, rng, scanPool, 0, pcScan, false, p.jitter)

		if rng.Float64() < p.joinProb {
			if rng.Float64() < p.innerProb {
				// Inner-relation lookup: walks one of a bounded set of
				// recurring index paths, giving DSS its (small)
				// temporally-correlated component.
				for _, pg := range paths[rng.Intn(innerPaths)] {
					out = innerLayout.emit(out, rng, innerPool, pg, pcInner, true, 0)
				}
			} else {
				// Hash bucket probe: uniformly random, compulsory-ish,
				// spatially patternless.
				bucket := rng.Intn(p.hashPages * mem.RegionBlocks)
				out = append(out, trace.Access{
					Addr: hashBase + mem.Addr(bucket)*mem.BlockSize,
					PC:   pcHash,
					Dep:  true,
				})
			}
		}
	}
	out = out[:n]
	for i := range out {
		out[i].Think = p.think
	}
	return out
}
