// custom shows the two extension points of the public API: registering
// your own predictor (stems.RegisterPredictor) and supplying your own
// workload (any stems.Source, batched by stems.AsBlockSource), then running
// both through the same Runner, Sweep, and metrics as the paper's
// predictors — without importing any internal package.
//
// The custom prefetcher here is a simple next-line prefetcher; the custom
// workload is a strided matrix-column walk that defeats it half the time.
//
//	go run ./examples/custom
package main

import (
	"context"
	"fmt"

	"stems"
)

// columnWalk yields column-major reads over a row-major matrix: large
// constant stride, so "next line" is wrong between elements but right when
// the walk crosses into the next block column.
type columnWalk struct {
	rows, cols int
	r, c       int
	emitted    int
	limit      int
}

func (w *columnWalk) Next(a *stems.Access) bool {
	if w.emitted >= w.limit {
		return false
	}
	const base = stems.Addr(1 << 30)
	addr := base + stems.Addr((w.r*w.cols+w.c)*8)
	*a = stems.Access{Addr: addr, PC: 0x300, Think: 60}
	w.r++
	if w.r == w.rows {
		w.r = 0
		w.c++
		if w.c == w.cols {
			w.c = 0
		}
	}
	w.emitted++
	return true
}

// nextLine is the custom prefetcher: on every demand read miss it fetches
// the following cache block into the streamed value buffer.
type nextLine struct {
	engine *stems.StreamEngine
}

func (p *nextLine) Name() string                        { return "next-line" }
func (p *nextLine) OnAccess(a stems.Access, l1Hit bool) {}
func (p *nextLine) OnL1Evict(stems.Addr)                {}
func (p *nextLine) OnOffChipEvent(a stems.Access, covered bool) {
	if !a.Write {
		p.engine.Direct(a.Addr.Block() + stems.BlockSize)
	}
}

func main() {
	// Register the out-of-tree predictor once; from here on it builds by
	// name exactly like the seven built-ins.
	err := stems.RegisterPredictor("next-line", func(m *stems.Machine, opt stems.Options) error {
		eng := m.AttachEngine(stems.StreamConfig{SVBEntries: 64})
		m.SetPrefetcher(&nextLine{engine: eng})
		return nil
	})
	if err != nil {
		panic(err)
	}

	// One runner per predictor, all replaying the same custom workload.
	// WithBlockSourceFunc hands each run a fresh walk, batched into
	// columnar blocks, so the comparison is apples to apples (and safe
	// under Sweep's parallelism).
	walk := func() stems.BlockSource {
		return stems.AsBlockSource(&columnWalk{rows: 512, cols: 2048, limit: 300_000})
	}
	var grid []*stems.Runner
	for _, pf := range []string{"none", "next-line", "stems"} {
		r, err := stems.New(
			stems.WithBlockSourceFunc(walk),
			stems.WithPredictor(pf),
			stems.WithSystem(stems.ScaledSystem()),
			stems.WithLabel(pf),
		)
		if err != nil {
			panic(err)
		}
		grid = append(grid, r)
	}

	results, err := stems.Sweep(context.Background(), grid)
	if err != nil {
		panic(err)
	}
	for i, res := range results {
		fmt.Printf("%-10s covered %5.1f%% overpred %5.1f%% cycles %d\n",
			grid[i].Label(), 100*res.Coverage(), 100*res.OverpredictionRate(), res.Cycles)
	}
}
