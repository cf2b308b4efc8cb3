// pointerchase demonstrates the paper's §2.1 claim that temporal streaming
// parallelizes dependence chains: a linked-list walk over scattered nodes
// pays the full off-chip round trip per hop without prefetching, because
// the next address is unknown until the current node arrives. A recorded
// miss sequence contains the addresses themselves, so TMS and STeMS fetch
// the chain elements in parallel.
//
//	go run ./examples/pointerchase
package main

import (
	"context"
	"fmt"
	"math/rand"

	"stems"
)

func buildChain(nodes, walks int) []stems.Access {
	rng := rand.New(rand.NewSource(3))
	order := rng.Perm(nodes)
	base := stems.Addr(1 << 30)
	var out []stems.Access
	for w := 0; w < walks; w++ {
		for _, n := range order {
			out = append(out, stems.Access{
				Addr:  base + stems.Addr(n)*stems.RegionSize, // one node per region
				PC:    0x200,
				Dep:   true, // address came from the previous node
				Think: 30,
			})
		}
	}
	return out
}

func main() {
	accs := buildChain(20_000, 5)
	fmt.Printf("linked-list walk: 20000 scattered nodes x 5 iterations = %d accesses\n", len(accs))
	fmt.Printf("every access is a dependent off-chip miss in the baseline\n\n")

	// Compact the walk once; every runner replays its own cursor over it.
	bt := stems.NewBlockTrace(accs)
	predictors := []string{"none", "sms", "tms", "stems"}
	grid := make([]*stems.Runner, len(predictors))
	for i, pf := range predictors {
		r, err := stems.New(
			stems.WithBlockSourceFunc(bt.Blocks),
			stems.WithPredictor(pf),
			stems.WithSystem(stems.ScaledSystem()),
			stems.WithScientificLookahead(), // deeper streams, as for em3d (§4.3)
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

	baseCycles := results[0].Cycles
	for i, pf := range predictors {
		res := results[i]
		line := fmt.Sprintf("%-6s covered %5.1f%%, %11d cycles", pf, 100*res.Coverage(), res.Cycles)
		if pf != "none" {
			line += fmt.Sprintf("  speedup %+.0f%%", 100*(float64(baseCycles)/float64(res.Cycles)-1))
		}
		fmt.Println(line)
	}

	fmt.Println(`
SMS sees a different spatial "pattern" for every node region and one PC, so
it cannot help. TMS and STeMS replay the recorded chain and turn serial
400-cycle hops into streamed hits — the mechanism behind the paper's ~4x
em3d and sparse speedups (§5.6).`)
}
