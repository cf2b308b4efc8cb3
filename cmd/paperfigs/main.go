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
//	paperfigs -fig all -parallelism 1  # serial; prints the same bytes
//	paperfigs -fig all -cpuprofile cpu.pprof -memprofile mem.pprof
//
// All requested figures share one trace arena, so each workload trace is
// generated exactly once per invocation regardless of how many figures,
// predictor kinds, and seeds replay it, and a predictor run two figures
// share is simulated once. Invalid input (a seed or seed count below 1, a
// negative length or parallelism, an unknown figure) exits 2 before
// anything is simulated.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"stems/internal/figures"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("paperfigs", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		fig         = flags.String("fig", "all", "comma-separated figures to regenerate: "+strings.Join(figures.Figures, ", ")+", or all")
		seed        = flags.Int64("seed", 1, "base workload seed")
		seeds       = flags.Int("seeds", 5, "independent runs for Figure 10 confidence intervals")
		accesses    = flags.Int("accesses", 0, "override per-workload trace length (0 = workload default)")
		parallelism = flags.Int("parallelism", 0, "concurrent runs (0 = GOMAXPROCS, 1 = serial)")
		cpuprofile  = flags.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile  = flags.String("memprofile", "", "write a heap profile to this file at exit")
	)
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	p := figures.DefaultParams()
	p.Seed = *seed
	p.Seeds = *seeds
	p.Accesses = *accesses
	p.Parallelism = *parallelism

	var names []string
	for _, f := range strings.Split(*fig, ",") {
		if f = strings.TrimSpace(f); f == "all" {
			names = append(names, figures.Figures...)
		} else {
			names = append(names, f)
		}
	}
	rep, err := figures.Compute(p, names...)
	if err != nil {
		fmt.Fprintf(stderr, "paperfigs: %v\n", err)
		return 2
	}
	fmt.Fprint(stdout, rep.Render())

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(stderr, "memprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		runtime.GC() // settle the heap so the profile shows live objects
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(stderr, "memprofile: %v\n", err)
			return 1
		}
	}
	return 0
}
