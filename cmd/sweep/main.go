// Command sweep runs one-dimensional parameter sweeps over any
// registered configuration knob, printing coverage, overprediction, and
// cycles per setting — the interactive counterpart of the Benchmark
// Ablation suite. The swept parameter is a knob name from the typed
// registry ("stemsim -predictors -v" prints the full table), with short
// aliases for the STeMS knobs DESIGN.md calls out; points run through
// stems.Sweep and print in sweep order regardless of which finishes
// first. Every point replays the same trace, generated once into a
// shared arena; each point runs on its own cursor over it.
//
//	sweep -param rmob -workload em3d
//	sweep -param stems.lookahead -values 2,4,8,12,16 -workload Zeus
//	sweep -param sms.pht_entries -values 1024,16384 -predictor sms
//	sweep -param recon -workload DB2 -set stems.svb_entries=128
//
// With -json, one canonical NDJSON record is flushed per point as soon
// as it (and every point before it) has finished, so piping into head
// or a live dashboard sees records immediately, in sweep order.
//
// With -grid URL the sweep does not run locally at all: it is submitted
// to the stemsd daemon at URL as one server-side grid job (a GridSpec
// with a single axis), letting the daemon's cache dedupe repeated cells
// and its workers do the computing. Output is identical to the local
// path — the same NDJSON records with -json, the same table without.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"stems"
)

// aliases map the historical short sweep names to registry knobs and
// their default value lists. The lookahead alias also pins the
// scientific flag off, so the swept value reaches the engine instead of
// the §4.3 workload-class default of 12.
var aliases = map[string]struct {
	knob   string
	values string
	pins   map[string]stems.Value
}{
	"rmob":      {knob: "stems.rmob_entries", values: "4096,16384,65536,131072,262144"},
	"pst":       {knob: "stems.pst_entries", values: "1024,4096,16384,65536"},
	"lookahead": {knob: "stems.lookahead", values: "2,4,8,12,16", pins: map[string]stems.Value{"scientific": stems.BoolValue(false)}},
	"recon":     {knob: "stems.recon_search", values: "0,1,2,4"},
	"queues":    {knob: "stems.stream_queues", values: "1,2,4,8,16"},
	"svb":       {knob: "stems.svb_entries", values: "16,32,64,128"},
}

func fatal(v any) {
	fmt.Fprintln(os.Stderr, v)
	os.Exit(2)
}

func main() {
	var (
		param       = flag.String("param", "rmob", "knob to sweep: a registry name (see stemsim -predictors -v) or an alias: rmob, pst, lookahead, recon, queues, svb")
		values      = flag.String("values", "", "comma-separated values for -param (defaults to the alias's list; required for non-alias knobs)")
		predictor   = flag.String("predictor", "stems", "predictor to sweep: "+strings.Join(stems.Predictors(), ", "))
		wl          = flag.String("workload", "DB2", "workload: "+strings.Join(stems.WorkloadNames(), ", "))
		seed        = flag.Int64("seed", 1, "workload seed")
		accesses    = flag.Int("accesses", 0, "trace length (0 = workload default)")
		parallelism = flag.Int("parallelism", 0, "concurrent sweep points (0 = GOMAXPROCS, 1 = serial)")
		jsonOut     = flag.Bool("json", false, "emit results as NDJSON in the stemsd service encoding (diffable against /v1/jobs results), flushed per record")
		gridURL     = flag.String("grid", "", "submit the sweep as one server-side grid job to the stemsd daemon at this base URL instead of running locally")
	)
	base := map[string]stems.Value{}
	flag.Func("set", "fixed knob override applied to every point, as name=value (repeatable)", func(s string) error {
		name, v, err := stems.ParseKnobAssignment(s)
		if err != nil {
			return err
		}
		base[name] = v
		return nil
	})
	flag.Parse()

	// The wire Spec both paths build reads seed 0 as "the default, 1", so
	// the flag gets the Runner's seed validation before it is lowered.
	if _, err := stems.New(stems.WithSeed(*seed)); err != nil {
		fatal(err)
	}

	knobName, valueList := *param, *values
	var pins map[string]stems.Value
	if a, ok := aliases[*param]; ok {
		knobName = a.knob
		pins = a.pins
		if valueList == "" {
			valueList = a.values
		}
	}
	if _, ok := stems.KnobByName(knobName); !ok {
		fatal(fmt.Sprintf("unknown knob %q (list them with stemsim -predictors -v)", knobName))
	}
	if valueList == "" {
		fatal(fmt.Sprintf("knob %q has no default value list: pass -values v1,v2,...", knobName))
	}

	labels := strings.Split(valueList, ",")
	points := make([]stems.Value, len(labels))
	for i, text := range labels {
		labels[i] = strings.TrimSpace(text)
		v, err := stems.ParseValue(labels[i])
		if err != nil {
			fatal(err)
		}
		points[i] = v
	}

	// Fixed knobs shared by every point: -set overrides, then alias pins
	// where not already overridden.
	fixed := make(map[string]stems.Value, len(base)+len(pins))
	for name, bv := range base {
		fixed[name] = bv
	}
	for name, pv := range pins {
		if _, overridden := fixed[name]; !overridden {
			fixed[name] = pv
		}
	}

	if *gridURL != "" {
		spec := gridSpec(*predictor, *wl, *seed, *accesses, fixed, knobName, points)
		if err := runGrid(context.Background(), stems.NewClient(*gridURL, nil), spec, *param, *jsonOut, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	// Every sweep point shares one trace arena: the first point to run
	// generates the trace, the rest replay the same read-only slice.
	arena := stems.NewArena()

	grid := make([]*stems.Runner, len(points))
	for i, v := range points {
		knobs := make(map[string]stems.Value, len(fixed)+1)
		for name, fv := range fixed {
			knobs[name] = fv
		}
		knobs[knobName] = v
		r, err := stems.FromSpec(stems.Spec{
			Predictor: *predictor,
			Workload:  *wl,
			Seed:      *seed,
			Accesses:  *accesses,
			Label:     labels[i],
			Knobs:     knobs,
		}, stems.WithSharedTrace(arena))
		if err != nil {
			fatal(err)
		}
		grid[i] = r
	}

	sweepOpts := []stems.SweepOption{stems.WithParallelism(*parallelism)}

	// In JSON mode records stream: each completed run is staged by grid
	// index and the longest finished prefix is encoded and flushed
	// immediately, so output order is deterministic (sweep order) while
	// latency to the first record is one run, not the whole grid.
	var (
		out     *bufio.Writer
		encoder *json.Encoder
		staged  []*stems.Result
		next    int
	)
	if *jsonOut {
		out = bufio.NewWriter(os.Stdout)
		encoder = json.NewEncoder(out)
		staged = make([]*stems.Result, len(grid))
		sweepOpts = append(sweepOpts, stems.WithRunResult(func(i int, res stems.Result) {
			staged[i] = &res
			for next < len(staged) && staged[next] != nil {
				if err := encoder.Encode(stems.EncodeResult(labels[next], *staged[next])); err != nil {
					fatal(err)
				}
				staged[next] = nil
				next++
			}
			if err := out.Flush(); err != nil {
				fatal(err)
			}
		}))
	}

	results, err := stems.Sweep(context.Background(), grid, sweepOpts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *jsonOut {
		return // every record was flushed by the WithRunResult hook
	}

	n := *accesses
	if spec, err := stems.WorkloadByName(*wl); err == nil && n == 0 {
		n = spec.DefaultAccesses
	}
	fmt.Printf("%s %s sweep on %s (%d accesses)\n\n", *predictor, knobName, *wl, n)
	fmt.Printf("%-8s %9s %10s %12s %12s\n", *param, "covered", "overpred", "cycles", "recon-drop")
	for i, label := range labels {
		res := results[i]
		fmt.Printf("%-8s %8.1f%% %9.1f%% %12d %11.1f%%\n",
			label, 100*res.Coverage(), 100*res.OverpredictionRate(), res.Cycles,
			100*res.ReconDropFraction())
	}
}

// gridSpec builds the one-axis server-side grid equivalent of the local
// sweep: the shared configuration as the base, the swept knob as the
// sole axis.
func gridSpec(predictor, workload string, seed int64, accesses int, fixed map[string]stems.Value, knob string, points []stems.Value) stems.GridSpec {
	return stems.GridSpec{
		Base: stems.RunSpec{
			Predictor: predictor,
			Workload:  workload,
			Seed:      seed,
			Accesses:  accesses,
			Knobs:     fixed,
		},
		Axes: []stems.GridAxis{{Knob: knob, Values: points}},
	}
}

// runGrid submits the sweep to a daemon as one grid job and renders it
// exactly like the local path: NDJSON records flushed to w in run order
// as the daemon reports them, or the summary table after completion.
func runGrid(ctx context.Context, c *stems.Client, spec stems.GridSpec, param string, jsonOut bool, w io.Writer) error {
	st, err := c.SubmitGrid(ctx, spec)
	if err != nil {
		return err
	}
	if jsonOut {
		out := bufio.NewWriter(w)
		encoder := json.NewEncoder(out)
		var encErr error
		final, err := c.WatchRuns(ctx, st.ID, nil, func(_ int, res stems.RunResult) {
			if encErr != nil {
				return
			}
			if encErr = encoder.Encode(res); encErr == nil {
				encErr = out.Flush()
			}
		})
		if err != nil {
			return err
		}
		if encErr != nil {
			return encErr
		}
		return jobErr(final)
	}

	final, err := c.Wait(ctx, st.ID)
	if err != nil {
		return err
	}
	if err := jobErr(final); err != nil {
		return err
	}
	results, err := final.DecodedResults()
	if err != nil {
		return err
	}
	var n uint64
	if len(results) > 0 {
		n = results[0].Accesses
	}
	fmt.Fprintf(w, "%s %s sweep on %s (%d accesses, via %s)\n\n",
		spec.Base.Predictor, spec.Axes[0].Knob, spec.Base.Workload, n, c.BaseURL())
	fmt.Fprintf(w, "%-8s %9s %10s %12s %12s\n", param, "covered", "overpred", "cycles", "recon-drop")
	for _, res := range results {
		fmt.Fprintf(w, "%-8s %8.1f%% %9.1f%% %12d %11.1f%%\n",
			res.Label, 100*res.Coverage, 100*res.OverpredictionRate, res.Cycles,
			100*res.ReconDropFraction)
	}
	return nil
}

// jobErr folds a terminal job status into an error: only a completed job
// has the full result set.
func jobErr(st stems.JobStatus) error {
	if st.State != stems.JobDone {
		if st.Error != "" {
			return fmt.Errorf("grid job %s %s: %s", st.ID, st.State, st.Error)
		}
		return fmt.Errorf("grid job %s %s", st.ID, st.State)
	}
	return nil
}
