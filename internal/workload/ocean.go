package workload

import (
	"stems/internal/mem"
	"stems/internal/trace"
)

// GenerateOcean models the ocean current simulation (Table 1: 1026×1026
// grid relaxations, scaled to the trace budget). Each relaxation sweep
// reads the grid row by row with a five-point stencil: the current row
// streams sequentially while the rows above and below are revisited at a
// fixed stride, followed by the relaxed value's store. The pattern is
// dense, regular, and *independent* — the OoO core and even the stride
// prefetcher already overlap much of it — and identical across sweeps, so
// every predictor attains high coverage and the interesting comparison is
// timeliness (§5.6: "in ocean and sparse, STeMS outperforms SMS …
// demonstrating increased prefetch timeliness of the single predicted
// sequence over numerous independent spatial predictions").
func GenerateOcean(seed int64, n int) []trace.Access {
	const (
		rows      = 384
		cols      = 512 // 512×512 doubles = 2MB per array
		arrays    = 2
		rowBytes  = cols * 8
		pcSweep   = uint64(0x5000)
		thinkCost = 55
	)
	_ = seed // the sweep is fully deterministic

	base := [arrays]mem.Addr{}
	for a := range base {
		base[a] = heapBase + mem.Addr(a)*(1<<26)
	}
	elem := func(arr, r, c int) mem.Addr {
		return base[arr] + mem.Addr(r*rowBytes+c*8)
	}

	// A step reads three rows of each array and stores once.
	out := newTrace(n, 3*arrays+1)
	for len(out) < n {
		for r := 1; r < rows-1 && len(out) < n; r++ {
			// One visit per block of the row (8 doubles per block):
			// center row, the two neighbor rows, then the store. The
			// relaxation couples the grids, so both arrays are read at the
			// same program points: per-PC address deltas alternate between
			// the two array bases and the reference-prediction table never
			// settles on a stride — the reason Table 1's stride prefetcher
			// contributes little here despite the regular sweep.
			for c := 0; c < cols && len(out) < n; c += 8 {
				for arr := 0; arr < arrays; arr++ {
					out = append(out,
						trace.Access{Addr: elem(arr, r, c), PC: pcSweep, Think: thinkCost},
						trace.Access{Addr: elem(arr, r-1, c), PC: pcSweep + 1, Think: thinkCost},
						trace.Access{Addr: elem(arr, r+1, c), PC: pcSweep + 2, Think: thinkCost},
					)
				}
				out = append(out, trace.Access{
					Addr: elem(0, r, c), PC: pcSweep + 3, Write: true,
				})
			}
		}
	}
	return out[:n]
}
