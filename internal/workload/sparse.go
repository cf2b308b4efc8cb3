package workload

import (
	"math/rand"

	"stems/internal/mem"
	"stems/internal/trace"
)

// GenerateSparse models the sparse matrix kernel (Table 1: 4096×4096
// matrix, scaled). Each iteration performs y = A·x over a compressed
// sparse-row matrix: every row's metadata, indices, and values stream
// through the blocks of the row's own region (a dense, repetitive spatial
// pattern), and the x-vector gathers jump to column-determined locations
// fixed at matrix build time — so the gather sequence repeats exactly
// across iterations (temporal) while staying spatially patternless.
//
// §5.5's sparse pathology is encoded directly: "several common spatial
// patterns toggle between two different delta sequences. Because incorrect
// deltas are used for some patterns during reconstruction, STeMS achieves
// lower coverage" — here, each matrix row's block traversal alternates
// between two orders on even/odd iterations.
func GenerateSparse(seed int64, n int) []trace.Access {
	rng := rand.New(rand.NewSource(seed))

	const (
		nrows     = 12 << 10  // one region per row: 24MB matrix
		rowAcc    = 5         // row blocks streamed per visit
		gathers   = 3         // x-vector gathers per row
		xEntries  = 512 << 10 // 4MB x vector: gathers go off chip
		pcRowBase = uint64(0x6000)
		pcGather  = uint64(0x6100)
		thinkCost = 40
	)

	// Each row's region is accessed through one of two block orders,
	// alternating by iteration parity (same footprint, two delta
	// sequences).
	pool := newPagePool(rng, nrows, heapBase)
	orderEven := []int{0, 1, 2, 3, 4}
	orderOdd := []int{0, 2, 1, 4, 3}

	// Column targets per row, fixed at build time.
	cols := make([][]int, nrows)
	for r := range cols {
		cols[r] = make([]int, gathers)
		for i := range cols[r] {
			cols[r][i] = rng.Intn(xEntries)
		}
	}
	xBase := heapBase + (1 << 32)
	xAddr := func(c int) mem.Addr { return xBase + mem.Addr(c*8) }

	out := newTrace(n, rowAcc+gathers)
	for iter := 0; len(out) < n; iter++ {
		order := orderEven
		if iter%2 == 1 {
			order = orderOdd
		}
		for r := 0; r < nrows && len(out) < n; r++ {
			for i, off := range order[:rowAcc] {
				out = append(out, trace.Access{
					Addr:  pool.addr(r, off),
					PC:    pcRowBase + uint64(i),
					Dep:   i == 0, // row pointer load
					Think: thinkCost,
				})
			}
			// Gathers: the column index was just loaded, so the x access
			// depends on it (§2.1's dependence chains; TMS parallelizes
			// these, giving its large sparse speedup).
			for _, c := range cols[r] {
				out = append(out, trace.Access{
					Addr: xAddr(c), PC: pcGather, Dep: true, Think: thinkCost,
				})
			}
		}
	}
	return out[:n]
}
