// Command paperfigs regenerates the tables and figures of "Spatio-Temporal
// Memory Streaming" (ISCA 2009) from the synthetic workload suite.
//
// Usage:
//
//	paperfigs -fig all
//	paperfigs -fig 6            # Figure 6 only
//	paperfigs -fig 10 -seeds 5  # Figure 10 with five seeds
//	paperfigs -fig hybrid       # §5.5 naive-hybrid ablation
//	paperfigs -fig table1
//	paperfigs -fig all -cpuprofile cpu.pprof -memprofile mem.pprof
//
// All requested figures share one trace arena, so each workload trace is
// generated exactly once per invocation regardless of how many figures,
// predictor kinds, and seeds replay it.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"stems/internal/figures"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		fig         = flag.String("fig", "all", "which figure to regenerate: table1, 6, 7, 8, 9, 10, hybrid, workloads, or all")
		seed        = flag.Int64("seed", 1, "base workload seed")
		seeds       = flag.Int("seeds", 5, "independent runs for Figure 10 confidence intervals")
		accesses    = flag.Int("accesses", 0, "override per-workload trace length (0 = workload default)")
		serial      = flag.Bool("serial", false, "disable per-workload parallelism")
		parallelism = flag.Int("parallelism", 0, "concurrent workloads (0 = GOMAXPROCS)")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile  = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	p := figures.DefaultParams()
	p.Seed = *seed
	p.Seeds = *seeds
	p.Accesses = *accesses
	p.Parallel = !*serial
	p.Parallelism = *parallelism

	want := map[string]bool{}
	for _, f := range strings.Split(*fig, ",") {
		want[strings.TrimSpace(f)] = true
	}
	all := want["all"]
	ran := false

	if all || want["table1"] {
		fmt.Println(figures.RenderTable1())
		ran = true
	}

	// Figures 6-9 and the hybrid ablation all replay the base-seed trace.
	// When more than one is requested, compute them as one panel per
	// workload (byte-identical to the standalone functions), which shares
	// the hybrid ablation's STeMS run with Figure 9.
	fusedCount := 0
	for _, f := range []string{"6", "7", "8", "9", "hybrid"} {
		if all || want[f] {
			fusedCount++
		}
	}
	var panels figures.Panels
	if fusedCount > 1 {
		panels = figures.FusedPanels(p)
	} else if fusedCount == 1 {
		switch {
		case all || want["6"]:
			panels.Fig6 = figures.Figure6(p)
		case all || want["7"]:
			panels.Fig7 = figures.Figure7(p)
		case all || want["8"]:
			panels.Fig8 = figures.Figure8(p)
		case all || want["9"]:
			panels.Fig9 = figures.Figure9(p)
		case all || want["hybrid"]:
			panels.Hybrid = figures.HybridAblation(p)
		}
	}
	if all || want["6"] {
		fmt.Println(figures.RenderFigure6(panels.Fig6))
		ran = true
	}
	if all || want["7"] {
		fmt.Println(figures.RenderFigure7(panels.Fig7))
		ran = true
	}
	if all || want["8"] {
		fmt.Println(figures.RenderFigure8(panels.Fig8))
		ran = true
	}
	if all || want["9"] {
		fmt.Println(figures.RenderFigure9(panels.Fig9))
		ran = true
	}
	if all || want["10"] {
		fmt.Println(figures.RenderFigure10(figures.Figure10(p)))
		ran = true
	}
	if all || want["hybrid"] {
		fmt.Println(figures.RenderHybrid(panels.Hybrid))
		ran = true
	}
	if all || want["workloads"] {
		fmt.Println(figures.RenderWorkloads(figures.Workloads(p)))
		ran = true
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown figure %q (want table1, 6, 7, 8, 9, 10, hybrid, workloads, all)\n", *fig)
		return 2
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		runtime.GC() // settle the heap so the profile shows live objects
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			return 1
		}
	}
	return 0
}
