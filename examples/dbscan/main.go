// dbscan reproduces the paper's §3 motivating example (Figure 2): a
// non-clustered database index scan. The scan proceeds logically through
// the table's pages, but the pages are scattered over the buffer pool; the
// order of *page* accesses is arbitrary but repetitive (temporal), while
// the accesses *within* each page — page ID, lock bits, slot indices, data
// — repeat (spatial).
//
// The example runs the same scan under TMS, SMS, and STeMS and shows why
// only the spatio-temporal combination covers both the page-to-page jumps
// and the within-page fields.
//
//	go run ./examples/dbscan
package main

import (
	"context"
	"fmt"
	"math/rand"

	"stems"
)

// buildScan constructs the Figure 2 scan: `pages` buffer-pool pages at
// shuffled physical frames, each visited through the same field layout,
// with the whole scan repeated `sweeps` times (a query re-run).
func buildScan(pages, sweeps int) []stems.Access {
	rng := rand.New(rand.NewSource(7))
	frames := rng.Perm(pages)
	base := stems.Addr(1 << 30)

	// The per-page access recipe of §3: page ID, lock bits, slot indices,
	// then data rows.
	fields := []struct {
		name   string
		offset int
		pc     uint64
	}{
		{"pageID", 0, 0x100},
		{"lockBits", 1, 0x101},
		{"slotIndex", 4, 0x102},
		{"row0", 9, 0x103},
		{"row1", 17, 0x104},
		{"row2", 25, 0x105},
	}

	var out []stems.Access
	for s := 0; s < sweeps; s++ {
		for logical := 0; logical < pages; logical++ {
			pageBase := base + stems.Addr(frames[logical])*stems.RegionSize
			for i, f := range fields {
				out = append(out, stems.Access{
					Addr:  pageBase + stems.Addr(f.offset)*stems.BlockSize,
					PC:    f.pc,
					Dep:   i == 0, // the next page comes from the index leaf
					Think: 120,
				})
			}
		}
	}
	return out
}

func main() {
	accs := buildScan(3000, 4)
	fmt.Printf("index scan: 3000 scattered pages x 6 fields x 4 sweeps = %d accesses\n\n", len(accs))

	// Compact the scan once; every runner replays its own cursor over it.
	bt := stems.NewBlockTrace(accs)
	predictors := []string{"stride", "tms", "sms", "stems"}
	grid := make([]*stems.Runner, len(predictors))
	for i, pf := range predictors {
		r, err := stems.New(
			stems.WithBlockSourceFunc(bt.Blocks),
			stems.WithPredictor(pf),
			stems.WithSystem(stems.ScaledSystem()),
		)
		if err != nil {
			panic(err)
		}
		grid[i] = r
	}
	results, err := stems.Sweep(context.Background(), grid)
	if err != nil {
		panic(err)
	}

	strideCycles := results[0].Cycles
	for i, pf := range predictors {
		res := results[i]
		line := fmt.Sprintf("%-7s covered %5.1f%% of %d misses, %d cycles",
			pf, 100*res.Coverage(), res.BaselineMisses(), res.Cycles)
		if pf != "stride" {
			line += fmt.Sprintf("  (%+.1f%% vs stride baseline)",
				100*(float64(strideCycles)/float64(res.Cycles)-1))
		}
		fmt.Println(line)
	}

	fmt.Println(`
What to look for:
  - TMS learns the page order after sweep 1 but must record every field
    access; SMS learns the page layout quickly but misses every page's
    first access (the trigger) and cannot order its predictions.
  - STeMS records only the trigger sequence, reconstructs the interleaved
    total order (Figure 5), and covers both components.`)
}
