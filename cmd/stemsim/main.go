// Command stemsim runs one workload through the memory-hierarchy simulator
// under a chosen prefetcher and prints the result: coverage, overprediction
// rate, cycles, and speedup against the no-prefetch and stride baselines.
// Predictor parameters are overridden with -set flags naming knobs from
// the typed registry; -predictors (with -v) prints the registry itself.
//
// Usage:
//
//	stemsim -workload DB2 -prefetcher stems
//	stemsim -workload em3d -prefetcher all -accesses 200000
//	stemsim -workload DB2 -prefetcher stems -set stems.rmob_entries=65536 -set scientific=false
//	stemsim -predictors -v
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"stems"
)

// printPredictors lists the registered predictors; verbose adds each
// one's knob schema from the registry (the same document stemsd serves
// at /v1/predictors) — name, kind, default, bounds, doc. The shared
// system/run tables print once rather than under every predictor.
func printPredictors(verbose bool) {
	printKnob := func(k stems.Knob) {
		bounds := ""
		if k.Kind != stems.KnobBool {
			lo, hi := fmt.Sprintf("%g", k.Min), fmt.Sprintf("%g", k.Max)
			if k.Kind == stems.KnobInt {
				lo, hi = fmt.Sprintf("%.0f", k.Min), fmt.Sprintf("%.0f", k.Max)
			}
			bounds = fmt.Sprintf("[%s, %s]", lo, hi)
		}
		fmt.Printf("  %-26s %-5s %-9s %-24s %s\n", k.Name, k.Kind, k.Default(), bounds, k.Doc)
	}
	if verbose {
		fmt.Println("shared knobs (every predictor):")
		for _, k := range stems.AllKnobs() {
			if k.Group == "system" || k.Group == "run" {
				printKnob(k)
			}
		}
		fmt.Println()
	}
	for _, name := range stems.Predictors() {
		fmt.Println(name)
		if !verbose {
			continue
		}
		for _, k := range stems.Knobs(name) {
			if k.Group != "system" && k.Group != "run" {
				printKnob(k)
			}
		}
	}
}

func main() {
	predictors := stems.Predictors()
	var (
		wl        = flag.String("workload", "DB2", "workload name: "+strings.Join(stems.WorkloadNames(), ", "))
		traceFile = flag.String("trace", "", "binary trace file (from tracegen) to replay instead of generating")
		pf        = flag.String("prefetcher", "all", "predictor: "+strings.Join(predictors, ", ")+", or all")
		seed      = flag.Int64("seed", 1, "workload seed")
		accesses  = flag.Int("accesses", 0, "trace length (0 = workload default)")
		paperL2   = flag.Bool("paper-l2", false, "use the full Table 1 8MB L2 instead of the scaled 1MB")
		serial    = flag.Bool("serial", false, "run the predictors one at a time instead of in parallel")
		listPreds = flag.Bool("predictors", false, "list registered predictors and exit (-v adds each one's knob table)")
		verbose   = flag.Bool("v", false, "with -predictors: print the full knob schema per predictor")
	)
	knobs := map[string]stems.Value{}
	flag.Func("set", "knob override as name=value, e.g. stems.rmob_entries=65536 (repeatable; see -predictors -v)", func(s string) error {
		name, v, err := stems.ParseKnobAssignment(s)
		if err != nil {
			return err
		}
		knobs[name] = v
		return nil
	})
	flag.Parse()

	if *listPreds {
		printPredictors(*verbose)
		return
	}

	var kinds []string
	if *pf == "all" {
		kinds = predictors
	} else {
		kinds = []string{*pf}
	}

	sys := stems.ScaledSystem()
	if *paperL2 {
		sys = stems.PaperSystem()
	}

	// The access stream is held once, in compact columnar block form, and
	// shared read-only by every runner — each gets its own cursor over the
	// same BlockTrace, so running len(kinds) predictors costs one trace
	// read or generation and one resident copy. A trace file is read here;
	// a workload trace is generated into a shared arena by the first run.
	opts := []stems.Option{stems.WithSystem(sys), stems.WithKnobs(knobs)}
	header := ""
	if *traceFile != "" {
		bt, err := stems.ReadTraceFileBlocks(*traceFile, *accesses)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		header = fmt.Sprintf("trace %s: %d accesses", *traceFile, bt.Len())
		opts = append(opts, stems.WithBlockSourceFunc(bt.Blocks))
	} else {
		opts = append(opts, stems.WithWorkload(*wl), stems.WithSeed(*seed),
			stems.WithAccesses(*accesses), stems.WithSharedTrace(stems.NewArena()))
	}

	grid := make([]*stems.Runner, len(kinds))
	for i, kind := range kinds {
		r, err := stems.New(append([]stems.Option{stems.WithPredictor(kind)}, opts...)...)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		grid[i] = r
	}

	parallelism := 0 // GOMAXPROCS
	if *serial {
		parallelism = 1
	}
	results, err := stems.Sweep(context.Background(), grid, stems.WithParallelism(parallelism))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if header == "" {
		// New has validated the workload name; the lookup only reads its
		// class for the header.
		spec, _ := stems.WorkloadByName(*wl)
		header = fmt.Sprintf("workload %s (%s): %d accesses, seed %d",
			spec.Name, spec.Class, results[0].Accesses, *seed)
	}
	fmt.Printf("%s\n\n", header)
	// Predictors() orders the baselines first, so the speedup references
	// are available by the time the streamed predictors print.
	var noneCycles, strideCycles uint64
	for i, kind := range kinds {
		res := results[i]
		switch kind {
		case "none":
			noneCycles = res.Cycles
		case "stride":
			strideCycles = res.Cycles
		}
		line := fmt.Sprintf("%-13s misses=%8d covered=%5.1f%% overpred=%6.1f%% cycles=%12d",
			kind, res.BaselineMisses(), 100*res.Coverage(), 100*res.OverpredictionRate(), res.Cycles)
		if strideCycles > 0 && kind != "none" && kind != "stride" {
			line += fmt.Sprintf("  speedup-vs-stride=%+6.1f%%",
				100*(float64(strideCycles)/float64(res.Cycles)-1))
		} else if noneCycles > 0 && kind == "stride" {
			line += fmt.Sprintf("  speedup-vs-none  =%+6.1f%%",
				100*(float64(noneCycles)/float64(res.Cycles)-1))
		}
		fmt.Println(line)
	}
}
