package workload

import (
	"math/rand"

	"stems/internal/mem"
	"stems/internal/trace"
)

// webParams tunes the SPECweb99-like generators. Web serving mixes the two
// behaviours: requests chase pointer-linked cached objects (temporal) and
// parse buffers with code-determined layouts (spatial), which is why both
// TMS and SMS each cover a sizable, partially disjoint share of its misses
// (Figure 6) and STeMS does best.
type webParams struct {
	objects     int     // cached objects
	hotObjects  int     // popular subset absorbing most requests
	hotProb     float64 // fraction of requests to the popular subset
	chainMin    int     // pages per object chain
	chainMax    int
	objTypes    int // buffer layouts (mime handlers, header parsers)
	accPerPage  int
	scratchProb float64 // per-request fresh connection scratch region
	noiseProb   float64 // unpredictable kernel/socket traffic per page
	jitter      float64
	think       uint16
}

func apacheParams() webParams {
	return webParams{
		objects:     40 << 10,
		hotObjects:  1 << 10,
		hotProb:     0.60,
		chainMin:    2,
		chainMax:    6,
		objTypes:    6,
		accPerPage:  5,
		scratchProb: 0.8,
		noiseProb:   0.15,
		jitter:      0.06,
		think:       80, // Apache "incurs more off-chip read stalls" (§5.6)
	}
}

func zeusParams() webParams {
	p := apacheParams()
	p.objects = 24 << 10
	p.hotObjects = 2 << 10
	p.hotProb = 0.75 // tighter working set: fewer off-chip stalls
	p.scratchProb = 0.5
	p.think = 140
	return p
}

// GenerateApache produces the SPECweb99-on-Apache stand-in trace.
func GenerateApache(seed int64, n int) []trace.Access {
	return generateWeb(apacheParams(), seed, n)
}

// GenerateZeus produces the SPECweb99-on-Zeus stand-in trace.
func GenerateZeus(seed int64, n int) []trace.Access {
	return generateWeb(zeusParams(), seed, n)
}

// webObject is one cached document: a pointer-linked chain of buffer pages,
// each processed by its mime-type's parsing code.
type webObject struct {
	pages []int
	otype int
}

func generateWeb(p webParams, seed int64, n int) []trace.Access {
	rng := rand.New(rand.NewSource(seed))
	poolPages := p.objects * (p.chainMax + 1) / 2
	pool := newPagePool(rng, poolPages, heapBase)

	layouts := make([]layout, p.objTypes)
	for i := range layouts {
		layouts[i] = newLayout(rng, 0, p.accPerPage)
	}
	scratchLayout := newLayout(rng, 0, 4)

	objs := make([]webObject, p.objects)
	nextPage := 0
	for i := range objs {
		chain := p.chainMin + rng.Intn(p.chainMax-p.chainMin+1)
		if nextPage+chain > poolPages {
			nextPage = 0
		}
		pages := make([]int, chain)
		for j := range pages {
			pages[j] = nextPage
			nextPage++
		}
		// Chains are contiguous logically but scattered physically (the
		// pool permutes frames), like a slab-allocated object cache.
		objs[i] = webObject{pages: pages, otype: rng.Intn(p.objTypes)}
	}

	const (
		pcParseBase uint64 = 0x3000
		pcScratch   uint64 = 0x3800
		pcNoise     uint64 = 0x3900
	)

	scratchBase := heapBase + (1 << 35)
	scratchRegion := 0

	// The last page of a request (layout and noise access) is followed by
	// its connection scratch.
	out := newTrace(n, p.accPerPage+1+len(scratchLayout.offsets))
	for len(out) < n {
		var obj *webObject
		if rng.Float64() < p.hotProb {
			obj = &objs[rng.Intn(p.hotObjects)]
		} else {
			obj = &objs[rng.Intn(p.objects)]
		}
		pc := pcParseBase + uint64(obj.otype)*0x100
		for _, page := range obj.pages {
			out = layouts[obj.otype].emit(out, rng, pool, page, pc, true, p.jitter)
			if rng.Float64() < p.noiseProb {
				out = append(out, trace.Access{
					Addr: pool.addr(rng.Intn(poolPages), rng.Intn(mem.RegionBlocks)),
					PC:   pcNoise + uint64(rng.Intn(8)),
				})
			}
			if len(out) >= n {
				break
			}
		}
		// Fresh per-request connection scratch: compulsory misses with a
		// repeating layout — spatially predictable, temporally not.
		if rng.Float64() < p.scratchProb {
			sp := &pagePool{frames: []mem.Addr{
				scratchBase + mem.Addr(scratchRegion)*mem.RegionSize,
			}}
			scratchRegion++
			out = scratchLayout.emit(out, rng, sp, 0, pcScratch, false, 0)
		}
	}
	out = out[:n]
	for i := range out {
		out[i].Think = p.think
	}
	return out
}
