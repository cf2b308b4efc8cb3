// Package figures regenerates every table and figure of the paper's
// evaluation (§5) from the synthetic workload suite: Table 1 (system
// parameters and predictor storage), Figure 6 (joint coverage), Figure 7
// (Sequitur repetition), Figure 8 (correlation distance), Figure 9
// (coverage/overprediction), Figure 10 (speedup over the stride baseline),
// the §5.5 naive-hybrid overprediction comparison, and the workload
// characterization table. Compute produces any set of them; both
// cmd/paperfigs and the repository-level benchmarks drive it.
//
// Compute works in two passes. The trace studies (Figures 6-8 and the
// workload table) replay observer machines over each workload's base-seed
// trace; they are analyses, not predictors. Every predictor run the
// requested figures read is then one stems.Runner in a single stems.Sweep,
// one Runner per distinct (workload, predictor, seed), so a run two
// figures share replays once.
package figures

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"stems"
	"stems/internal/analysis"
	"stems/internal/config"
	"stems/internal/par"
	"stems/internal/sim"
	"stems/internal/stats"
	"stems/internal/trace"
	"stems/internal/workload"
)

// Params controls experiment scale.
type Params struct {
	// Seed is the base workload seed (at least 1).
	Seed int64
	// Accesses overrides each workload's default trace length (0 = default).
	Accesses int
	// Seeds is the number of independent runs (at least 1) behind Figure
	// 10's confidence intervals: seeds Seed, Seed+SeedStride, and so on.
	Seeds int
	// System is the simulated node; the zero value selects the scaled
	// experiment configuration (see config.ScaledSystem).
	System config.System
	// Parallelism bounds the worker goroutines of both passes
	// (0 = GOMAXPROCS, 1 = serial). Results do not depend on it.
	Parallelism int
	// Arena caches generated traces, so every run of a (workload, seed,
	// length) replays one resident trace, generated once. Base-seed traces
	// stay resident for later calls; Figure 10's extra seeds leave the
	// arena as soon as the last run replaying each one lands. A nil arena
	// regenerates the trace for every run.
	Arena *trace.Arena
}

// DefaultParams returns the scale used for EXPERIMENTS.md.
func DefaultParams() Params {
	return Params{Seed: 1, Seeds: 5, System: config.ScaledSystem(), Arena: trace.NewArena()}
}

func (p Params) system() config.System {
	if p.System.L1SizeBytes == 0 {
		return config.ScaledSystem()
	}
	return p.System
}

// traceKey names spec's trace at seed: its arena key.
func (p Params) traceKey(spec workload.Spec, seed int64) trace.ArenaKey {
	n := spec.DefaultAccesses
	if p.Accesses > 0 {
		n = p.Accesses
	}
	return trace.ArenaKey{Name: spec.Name, Seed: seed, N: n}
}

// baseTrace returns spec's base-seed trace, through the arena when one is
// configured; the predictor runs of the same trace find it there.
func (p Params) baseTrace(spec workload.Spec) *trace.BlockTrace {
	k := p.traceKey(spec, p.Seed)
	if p.Arena == nil {
		return spec.GenerateBlocks(k.Seed, k.N)
	}
	return p.Arena.Get(k.Name, k.Seed, k.N, func() []trace.Access {
		return spec.Generate(k.Seed, k.N)
	})
}

// seeds returns Figure 10's seed progression.
func (p Params) seeds() []int64 {
	out := make([]int64, p.Seeds)
	for s := range out {
		out[s] = p.Seed + int64(s)*workload.SeedStride
	}
	return out
}

// Figures names the tables and figures Compute accepts, in the order
// Report.Render prints them.
var Figures = []string{"table1", "6", "7", "8", "9", "10", "hybrid", "workloads"}

// Report holds the rows of the figures one Compute call produced; a
// figure it was not asked for stays nil.
type Report struct {
	Fig6      []Fig6Row
	Fig7      []Fig7Row
	Fig8      []Fig8Row
	Fig9      []Fig9Row
	Fig10     []Fig10Row
	Hybrid    []HybridRow
	Workloads []WorkloadRow

	want map[string]bool // the names Compute was asked for
}

// Compute produces the named figures (see Figures). It rejects invalid
// parameters and unknown names before it simulates anything; the runs of
// valid parameters cannot fail.
func Compute(p Params, figs ...string) (Report, error) {
	rep := Report{want: make(map[string]bool, len(figs))}
	switch {
	case p.Seed < 1:
		return Report{}, fmt.Errorf("invalid seed %d: workload seeds are positive", p.Seed)
	case p.Seeds < 1:
		return Report{}, fmt.Errorf("invalid seed count %d: need at least 1", p.Seeds)
	case p.Accesses < 0:
		return Report{}, fmt.Errorf("invalid access count %d: must be positive, or 0 for each workload's default length", p.Accesses)
	case p.Parallelism < 0:
		return Report{}, fmt.Errorf("invalid parallelism %d: must be positive, or 0 for GOMAXPROCS", p.Parallelism)
	}
	for _, f := range figs {
		if !slices.Contains(Figures, f) {
			return Report{}, fmt.Errorf("unknown figure %q (want %s)", f, strings.Join(Figures, ", "))
		}
		rep.want[f] = true
	}
	p.study(&rep)
	results, err := p.runPredictors(rep.want)
	if err != nil {
		return Report{}, err
	}
	for _, spec := range workload.Suite() {
		base := p.traceKey(spec, p.Seed)
		if rep.want["9"] {
			row := Fig9Row{Workload: spec.Name}
			for _, kind := range Fig9Kinds {
				res := results[figRun{base, kind}]
				row.Cells = append(row.Cells, Fig9Cell{
					Kind:     kind,
					Coverage: res.Coverage(),
					Overpred: res.OverpredictionRate(),
					Result:   res,
				})
			}
			rep.Fig9 = append(rep.Fig9, row)
		}
		if rep.want["10"] {
			row := Fig10Row{Workload: spec.Name, Speedup: map[sim.Kind]*stats.Sample{}}
			for _, kind := range Fig10Kinds {
				row.Speedup[kind] = &stats.Sample{}
			}
			for _, seed := range p.seeds() {
				k := p.traceKey(spec, seed)
				stride := results[figRun{k, sim.KindStride}]
				for _, kind := range Fig10Kinds {
					row.Speedup[kind].Add(float64(stride.Cycles)/float64(results[figRun{k, kind}].Cycles) - 1)
				}
			}
			rep.Fig10 = append(rep.Fig10, row)
		}
		if rep.want["hybrid"] && commercial(spec) {
			naive, st := results[figRun{base, sim.KindNaiveHybrid}], results[figRun{base, sim.KindSTeMS}]
			rep.Hybrid = append(rep.Hybrid, HybridRow{
				Workload:      spec.Name,
				NaiveOverpred: naive.OverpredictionRate(),
				STeMSOverpred: st.OverpredictionRate(),
				NaiveCoverage: naive.Coverage(),
				STeMSCoverage: st.Coverage(),
			})
		}
	}
	return rep, nil
}

// study runs the requested trace studies (Figures 6-8 and the workload
// table), one workload at a time per worker, over the base-seed traces.
func (p Params) study(rep *Report) {
	specs := workload.Suite()
	if rep.want["6"] {
		rep.Fig6 = make([]Fig6Row, len(specs))
	}
	if rep.want["7"] {
		rep.Fig7 = make([]Fig7Row, len(specs))
	}
	if rep.want["8"] {
		rep.Fig8 = make([]Fig8Row, len(specs))
	}
	if rep.want["workloads"] {
		rep.Workloads = make([]WorkloadRow, len(specs))
	}
	if rep.Fig6 == nil && rep.Fig7 == nil && rep.Fig8 == nil && rep.Workloads == nil {
		return
	}
	sys := p.system()
	par.Map(context.Background(), len(specs), p.Parallelism, func(_ context.Context, i int) (struct{}, error) {
		spec := specs[i]
		bt := p.baseTrace(spec)
		if rep.Fig6 != nil {
			rep.Fig6[i] = Fig6Row{Workload: spec.Name, Class: spec.Class,
				Result: analysis.Joint(sys, config.DefaultSMS(), bt.Blocks())}
		}
		if rep.Fig7 != nil {
			rep.Fig7[i] = Fig7Row{Workload: spec.Name, Rep: analysis.Repetitions(sys, bt.Blocks())}
		}
		if rep.Fig8 != nil {
			rep.Fig8[i] = Fig8Row{Workload: spec.Name, CD: analysis.CorrDistances(sys, bt.Blocks())}
		}
		if rep.Workloads != nil {
			rep.Workloads[i] = characterize(sys, spec, bt)
		}
		return struct{}{}, nil
	})
}

// figRun is one predictor run a figure reads: a kind replaying one
// workload trace.
type figRun struct {
	trace.ArenaKey
	kind sim.Kind
}

// commercial reports whether spec is one of the OLTP and web workloads the
// §5.5 ablation compares on (the paper quotes their ratio).
func commercial(spec workload.Spec) bool {
	return spec.Class == workload.ClassWeb || spec.Class == workload.ClassOLTP
}

// runPredictors executes every predictor run the requested figures read
// (Figure 9's panel, Figure 10's stride baseline and panel at every seed,
// the ablation's naive hybrid and STeMS) as one Sweep with one Runner per
// distinct run, and returns the results by run. Runs are ordered by trace,
// so the workers share one extra-seed trace at a time, and each extra-seed
// trace is dropped from the arena as soon as its last run lands.
func (p Params) runPredictors(want map[string]bool) (map[figRun]sim.Result, error) {
	var runs []figRun
	seen := map[figRun]bool{}
	need := func(k trace.ArenaKey, kinds ...sim.Kind) {
		for _, kind := range kinds {
			if r := (figRun{k, kind}); !seen[r] {
				seen[r] = true
				runs = append(runs, r)
			}
		}
	}
	for _, spec := range workload.Suite() {
		base := p.traceKey(spec, p.Seed)
		if want["9"] {
			need(base, Fig9Kinds...)
		}
		if want["10"] {
			for _, seed := range p.seeds() {
				k := p.traceKey(spec, seed)
				need(k, sim.KindStride)
				need(k, Fig10Kinds...)
			}
		}
		if want["hybrid"] && commercial(spec) {
			need(base, sim.KindNaiveHybrid, sim.KindSTeMS)
		}
	}

	grid := make([]*stems.Runner, len(runs))
	pending := map[trace.ArenaKey]int{} // runs left on each extra-seed trace
	for i, r := range runs {
		var err error
		grid[i], err = stems.New(
			stems.WithWorkload(r.Name),
			stems.WithPredictor(string(r.kind)),
			stems.WithSeed(r.Seed),
			stems.WithAccesses(r.N),
			stems.WithSystem(p.system()),
			stems.WithSharedTrace(p.Arena),
		)
		if err != nil {
			return nil, err
		}
		if r.Seed != p.Seed {
			pending[r.ArenaKey]++
		}
	}
	results, err := stems.Sweep(context.Background(), grid,
		stems.WithParallelism(p.Parallelism),
		stems.WithRunResult(func(i int, _ stems.Result) {
			k := runs[i].ArenaKey
			if k.Seed == p.Seed || p.Arena == nil {
				return
			}
			if pending[k]--; pending[k] == 0 {
				p.Arena.Drop(k.Name, k.Seed, k.N)
			}
		}))
	if err != nil {
		return nil, err
	}
	out := make(map[figRun]sim.Result, len(runs))
	for i, r := range runs {
		out[r] = results[i]
	}
	return out, nil
}

// Render formats every figure the report was computed for, each followed
// by a blank line, in Figures order: the bytes cmd/paperfigs prints.
func (r Report) Render() string {
	var b strings.Builder
	for _, f := range Figures {
		if !r.want[f] {
			continue
		}
		switch f {
		case "table1":
			b.WriteString(RenderTable1())
		case "6":
			b.WriteString(RenderFigure6(r.Fig6))
		case "7":
			b.WriteString(RenderFigure7(r.Fig7))
		case "8":
			b.WriteString(RenderFigure8(r.Fig8))
		case "9":
			b.WriteString(RenderFigure9(r.Fig9))
		case "10":
			b.WriteString(RenderFigure10(r.Fig10))
		case "hybrid":
			b.WriteString(RenderHybrid(r.Hybrid))
		case "workloads":
			b.WriteString(RenderWorkloads(r.Workloads))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ---- Figure 6 ----

// Fig6Row is one workload's joint TMS/SMS classification.
type Fig6Row struct {
	Workload string
	Class    workload.Class
	Result   analysis.JointResult
}

// RenderFigure6 formats the rows as the paper's stacked-bar data.
func RenderFigure6(rows []Fig6Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6: joint analysis of temporal and spatial memory streaming\n")
	fmt.Fprintf(&b, "(fraction of baseline off-chip read misses)\n\n")
	fmt.Fprintf(&b, "%-12s %-10s %8s %9s %9s %9s\n",
		"Workload", "Class", "Both", "TMS-only", "SMS-only", "Neither")
	var sb, st, ss, sn float64
	for _, r := range rows {
		both, tms, sms, neither := r.Result.Frac()
		fmt.Fprintf(&b, "%-12s %-10s %7.1f%% %8.1f%% %8.1f%% %8.1f%%\n",
			r.Workload, r.Class, 100*both, 100*tms, 100*sms, 100*neither)
		sb += both
		st += tms
		ss += sms
		sn += neither
	}
	n := float64(len(rows))
	if n > 0 {
		fmt.Fprintf(&b, "%-12s %-10s %7.1f%% %8.1f%% %8.1f%% %8.1f%%\n",
			"MEAN", "", 100*sb/n, 100*st/n, 100*ss/n, 100*sn/n)
		fmt.Fprintf(&b, "\npaper headline (§1): temporal 32%%, spatial 54%%, joint 70%% — here: "+
			"temporal %.0f%%, spatial %.0f%%, joint %.0f%%\n",
			100*(sb+st)/n, 100*(sb+ss)/n, 100*(sb+st+ss)/n)
	}
	return b.String()
}

// ---- Figure 7 ----

// Fig7Row is one workload's repetition taxonomy.
type Fig7Row struct {
	Workload string
	Rep      analysis.Repetition
}

// RenderFigure7 formats the taxonomy for all-misses and triggers.
func RenderFigure7(rows []Fig7Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7: temporal repetition of addresses and spatial triggers\n\n")
	fmt.Fprintf(&b, "%-12s %-10s %8s %7s %7s %12s\n",
		"Workload", "Sequence", "Non-rep", "New", "Head", "Opportunity")
	var oppAll, oppTrig float64
	for _, r := range rows {
		for _, seq := range []struct {
			label string
			rep   analysis.RepBreakdown
		}{{"All_Addrs", r.Rep.AllAddrs}, {"Triggers", r.Rep.Triggers}} {
			n, nw, h, o := seq.rep.Frac()
			fmt.Fprintf(&b, "%-12s %-10s %7.1f%% %6.1f%% %6.1f%% %11.1f%%\n",
				r.Workload, seq.label, 100*n, 100*nw, 100*h, 100*o)
		}
		oppAll += r.Rep.AllAddrs.OpportunityFrac()
		oppTrig += r.Rep.Triggers.OpportunityFrac()
	}
	if len(rows) > 0 {
		n := float64(len(rows))
		fmt.Fprintf(&b, "\nmean opportunity: all addresses %.0f%%, triggers %.0f%% "+
			"(paper §1: 45%% vs 47%%)\n", 100*oppAll/n, 100*oppTrig/n)
	}
	return b.String()
}

// ---- Figure 8 ----

// Fig8Row is one workload's correlation-distance distribution.
type Fig8Row struct {
	Workload string
	CD       *analysis.CorrDist
}

// RenderFigure8 formats the cumulative distribution over distances -6..6.
func RenderFigure8(rows []Fig8Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8: temporal repetition within spatial generations\n")
	fmt.Fprintf(&b, "(cumulative fraction of region access pairs by correlation distance;\n")
	fmt.Fprintf(&b, " +1 = perfect repetition)\n\n")
	fmt.Fprintf(&b, "%-12s", "Workload")
	for d := -6; d <= 6; d++ {
		if d == 0 {
			continue // distance 0 cannot occur (distinct offsets)
		}
		fmt.Fprintf(&b, " %6d", d)
	}
	fmt.Fprintf(&b, " %7s %7s\n", "win<=2", "win<=4")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s", r.Workload)
		cum := 0.0
		// Walk distances in plot order, accumulating the in-range mass the
		// way the paper's CDF does (under-range mass excluded like the
		// paper's ±6 plot).
		for d := -6; d <= 6; d++ {
			if d == 0 {
				continue
			}
			cum += r.CD.Hist.Frac(d)
			fmt.Fprintf(&b, " %5.1f%%", 100*cum)
		}
		fmt.Fprintf(&b, " %6.1f%% %6.1f%%\n",
			100*r.CD.WithinWindow(2), 100*r.CD.WithinWindow(4))
	}
	return b.String()
}

// ---- Figure 9 ----

// Fig9Kinds are the predictors compared in Figure 9.
var Fig9Kinds = []sim.Kind{sim.KindTMS, sim.KindSMS, sim.KindSTeMS}

// Fig9Cell is one predictor's result on one workload.
type Fig9Cell struct {
	Kind     sim.Kind
	Coverage float64
	Overpred float64
	Result   sim.Result
}

// Fig9Row is one workload's comparison.
type Fig9Row struct {
	Workload string
	Cells    []Fig9Cell
}

// RenderFigure9 formats the comparison.
func RenderFigure9(rows []Fig9Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9: comparison of temporal, spatial, and spatio-temporal streaming\n")
	fmt.Fprintf(&b, "(as %% of baseline off-chip read misses)\n\n")
	fmt.Fprintf(&b, "%-12s %-7s %9s %10s %13s\n", "Workload", "Pred", "Covered", "Uncovered", "Overpredicted")
	sums := map[sim.Kind][2]float64{}
	for _, r := range rows {
		for _, c := range r.Cells {
			fmt.Fprintf(&b, "%-12s %-7s %8.1f%% %9.1f%% %12.1f%%\n",
				r.Workload, c.Kind, 100*c.Coverage, 100*(1-c.Coverage), 100*c.Overpred)
			s := sums[c.Kind]
			s[0] += c.Coverage
			s[1] += c.Overpred
			sums[c.Kind] = s
		}
		fmt.Fprintln(&b)
	}
	if len(rows) > 0 {
		n := float64(len(rows))
		kinds := make([]string, 0, len(sums))
		for k := range sums {
			kinds = append(kinds, string(k))
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			s := sums[sim.Kind(k)]
			fmt.Fprintf(&b, "MEAN %-7s coverage=%.1f%% overpredictions=%.1f%%\n",
				k, 100*s[0]/n, 100*s[1]/n)
		}
		fmt.Fprintf(&b, "\npaper headline (§1): STeMS predicts 62%% of off-chip read misses,\n"+
			"mispredicts an additional 29%%\n")
	}
	return b.String()
}

// ---- Figure 10 ----

// Fig10Kinds are the predictors compared against the stride baseline.
var Fig10Kinds = []sim.Kind{sim.KindTMS, sim.KindSMS, sim.KindSTeMS}

// Fig10Row is one workload's speedups over the stride-prefetching
// baseline, with confidence intervals across seeds (the stand-in for the
// paper's SimFlex sampling).
type Fig10Row struct {
	Workload string
	// Speedup maps predictor -> sample of (cycles_baseline/cycles - 1)
	// over the seeds.
	Speedup map[sim.Kind]*stats.Sample
}

// RenderFigure10 formats speedups with 95% confidence intervals.
func RenderFigure10(rows []Fig10Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 10: performance improvement over the stride-prefetching baseline\n")
	fmt.Fprintf(&b, "(mean ± 95%% CI over seeds)\n\n")
	fmt.Fprintf(&b, "%-12s", "Workload")
	for _, k := range Fig10Kinds {
		fmt.Fprintf(&b, " %18s", k)
	}
	fmt.Fprintln(&b)
	geo := map[sim.Kind]float64{}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s", r.Workload)
		for _, k := range Fig10Kinds {
			s := r.Speedup[k]
			fmt.Fprintf(&b, "  %+7.1f%% ± %5.1f%%", 100*s.Mean(), 100*s.CI95())
			geo[k] += s.Mean()
		}
		fmt.Fprintln(&b)
	}
	if len(rows) > 0 {
		n := float64(len(rows))
		fmt.Fprintf(&b, "%-12s", "MEAN")
		for _, k := range Fig10Kinds {
			fmt.Fprintf(&b, "  %+7.1f%%%9s", 100*geo[k]/n, "")
		}
		fmt.Fprintf(&b, "\n\npaper headline (§1): STeMS improves performance by 31%%, 3%%, and 18%%\n"+
			"over stride, spatial, and temporal prediction, respectively\n")
	}
	return b.String()
}

// ---- §5.5 naive hybrid ablation ----

// HybridRow compares the naive combination's overpredictions with STeMS's.
type HybridRow struct {
	Workload      string
	NaiveOverpred float64
	STeMSOverpred float64
	NaiveCoverage float64
	STeMSCoverage float64
}

// Ratio returns naive/STeMS overprediction ratio (∞-safe).
func (h HybridRow) Ratio() float64 {
	if h.STeMSOverpred == 0 {
		return 0
	}
	return h.NaiveOverpred / h.STeMSOverpred
}

// RenderHybrid formats the §5.5 comparison.
func RenderHybrid(rows []HybridRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "§5.5 ablation: naive TMS+SMS combination vs STeMS (OLTP and web)\n\n")
	fmt.Fprintf(&b, "%-12s %12s %12s %8s\n", "Workload", "naive-over", "stems-over", "ratio")
	var sum float64
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %11.1f%% %11.1f%% %7.1fx\n",
			r.Workload, 100*r.NaiveOverpred, 100*r.STeMSOverpred, r.Ratio())
		sum += r.Ratio()
	}
	if len(rows) > 0 {
		fmt.Fprintf(&b, "\nmean ratio %.1fx (paper §5.5: \"roughly 2-3x the overpredictions of STeMS\")\n",
			sum/float64(len(rows)))
	}
	return b.String()
}

// ---- Table 1 ----

// RenderTable1 prints the system/application parameters and the §4.3
// predictor storage budgets.
func RenderTable1() string {
	sys := config.DefaultSystem()
	st := config.Storage(config.DefaultSMS(), config.DefaultTMS(), config.DefaultSTeMS())
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: system parameters (model equivalents)\n\n")
	fmt.Fprintf(&b, "L1d cache           %dKB %d-way, %dB blocks\n", sys.L1SizeBytes>>10, sys.L1Ways, 64)
	fmt.Fprintf(&b, "L2 cache            %dMB %d-way, %d-cycle hit\n", sys.L2SizeBytes>>20, sys.L2Ways, sys.L2HitCycles)
	fmt.Fprintf(&b, "Off-chip latency    %d cycles\n", sys.OffChipCycles)
	fmt.Fprintf(&b, "Core MLP (indep)    %.0f overlapping misses\n", sys.MLP)
	fmt.Fprintf(&b, "Memory channels     %d, %d-cycle occupancy per 64B transfer\n", sys.MemChannels, sys.ChannelOccupancy)
	fmt.Fprintf(&b, "\nPredictor storage (§4.3)\n")
	fmt.Fprintf(&b, "STeMS AGT           %6.1f KB (64 entries x 40B)\n", float64(st.AGT)/1024)
	fmt.Fprintf(&b, "STeMS PST           %6.1f KB (16K entries x 40B, off chip)\n", float64(st.PST)/1024)
	fmt.Fprintf(&b, "STeMS RMOB          %6.1f KB (128K entries x 8B, off chip)\n", float64(st.RMOB)/1024)
	fmt.Fprintf(&b, "TMS CMOB            %6.1f KB (384K entries, off chip)\n", float64(st.CMOB)/1024)
	fmt.Fprintf(&b, "SMS PHT             %6.1f KB (16K entries x 4B)\n", float64(st.PHT)/1024)
	fmt.Fprintf(&b, "\nWorkloads: %s\n", strings.Join(workload.Names(), ", "))
	return b.String()
}
