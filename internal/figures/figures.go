// Package figures regenerates every table and figure of the paper's
// evaluation (§5) from the synthetic workload suite: Table 1 (system
// parameters and predictor storage), Figure 6 (joint coverage), Figure 7
// (Sequitur repetition), Figure 8 (correlation distance), Figure 9
// (coverage/overprediction), Figure 10 (speedup over the stride baseline),
// and the §5.5 naive-hybrid overprediction comparison. Both cmd/paperfigs
// and the repository-level benchmarks drive this package.
package figures

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"stems/internal/analysis"
	"stems/internal/config"
	"stems/internal/par"
	"stems/internal/sim"
	"stems/internal/stats"
	"stems/internal/trace"
	"stems/internal/workload"

	// The figure harness builds every predictor kind by name.
	_ "stems/internal/predictors"
)

// Params controls experiment scale.
type Params struct {
	// Seed is the base workload seed.
	Seed int64
	// Accesses overrides each workload's default trace length (0 = default).
	Accesses int
	// Seeds is the number of independent runs for Figure 10's confidence
	// intervals.
	Seeds int
	// System is the simulated node; the zero value selects the scaled
	// experiment configuration (see config.ScaledSystem).
	System config.System
	// Parallel enables running workloads on separate goroutines.
	Parallel bool
	// Parallelism bounds the worker goroutines when Parallel is set
	// (0 = GOMAXPROCS).
	Parallelism int
	// Arena caches generated traces so every figure cell sharing a
	// (workload, seed, length) replays one slice instead of regenerating
	// it — pass the same arena to several figures and the whole run
	// generates each trace once. A nil arena regenerates per cell.
	Arena *trace.Arena
}

// DefaultParams returns the scale used for EXPERIMENTS.md.
func DefaultParams() Params {
	return Params{Seed: 1, Seeds: 5, System: config.ScaledSystem(), Parallel: true, Arena: trace.NewArena()}
}

func (p Params) system() config.System {
	if p.System.L1SizeBytes == 0 {
		return config.ScaledSystem()
	}
	return p.System
}

// accessesFor returns the trace length used for spec.
func (p Params) accessesFor(spec workload.Spec) int {
	if p.Accesses > 0 {
		return p.Accesses
	}
	return spec.DefaultAccesses
}

// traceAt returns spec's columnar trace for an explicit seed, through the
// arena when one is configured.
func (p Params) traceAt(spec workload.Spec, seed int64) *trace.BlockTrace {
	n := p.accessesFor(spec)
	if p.Arena != nil {
		return p.Arena.Get(spec.Name, seed, n, func() []trace.Access {
			return spec.Generate(seed, n)
		})
	}
	return spec.GenerateBlocks(seed, n)
}

func (p Params) traceFor(spec workload.Spec) *trace.BlockTrace {
	return p.traceAt(spec, p.Seed)
}

// laneParallelism is the worker bound for a per-workload panel: when
// workloads already fan out across goroutines each panel replays
// serially; a standalone (non-parallel) figure lets the panel use the
// whole machine instead.
func (p Params) laneParallelism() int {
	if p.Parallel {
		return 1
	}
	return 0
}

// replayPanel replays every machine of one workload's panel over its own
// cursor on bt, up to laneParallelism at a time, and returns the results
// in machine order. Machines share nothing but the read-only trace, so
// any schedule produces the same results.
func (p Params) replayPanel(bt *trace.BlockTrace, machines []*sim.Machine) []sim.Result {
	results, _ := par.Map(context.Background(), len(machines), p.laneParallelism(),
		func(_ context.Context, i int) (sim.Result, error) {
			return machines[i].RunBlocks(bt.Blocks()), nil
		})
	return results
}

// forEachWorkload runs fn over the suite, optionally in parallel,
// preserving suite order in the output.
func forEachWorkload[T any](p Params, fn func(spec workload.Spec) T) []T {
	specs := workload.Suite()
	workers := 1
	if p.Parallel {
		workers = p.Parallelism // 0 = GOMAXPROCS
	}
	out, _ := par.Map(context.Background(), len(specs), workers,
		func(_ context.Context, i int) (T, error) { return fn(specs[i]), nil })
	return out
}

// ---- Figure 6 ----

// Fig6Row is one workload's joint TMS/SMS classification.
type Fig6Row struct {
	Workload string
	Class    workload.Class
	Result   analysis.JointResult
}

// Figure6 classifies every baseline off-chip read miss per workload.
func Figure6(p Params) []Fig6Row {
	return forEachWorkload(p, func(spec workload.Spec) Fig6Row {
		return Fig6Row{
			Workload: spec.Name,
			Class:    spec.Class,
			Result:   analysis.Joint(p.system(), config.DefaultSMS(), p.traceFor(spec).Blocks()),
		}
	})
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

// Figure7 runs the Sequitur study per workload.
func Figure7(p Params) []Fig7Row {
	return forEachWorkload(p, func(spec workload.Spec) Fig7Row {
		return Fig7Row{Workload: spec.Name, Rep: analysis.Repetitions(p.system(), p.traceFor(spec).Blocks())}
	})
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

// Figure8 runs the intra-generation reordering study per workload.
func Figure8(p Params) []Fig8Row {
	return forEachWorkload(p, func(spec workload.Spec) Fig8Row {
		return Fig8Row{Workload: spec.Name, CD: analysis.CorrDistances(p.system(), p.traceFor(spec).Blocks())}
	})
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

// buildFigMachine constructs one figure cell's machine: the paper's
// default predictor sizings on this run's system, with the workload-class
// lookahead.
func buildFigMachine(p Params, spec workload.Spec, kind sim.Kind) *sim.Machine {
	opt := sim.DefaultOptions()
	opt.System = p.system()
	opt.Scientific = spec.Scientific
	m, err := sim.Build(kind, opt)
	if err != nil {
		panic(err)
	}
	return m
}

// runOne simulates one workload under one predictor. The trace comes from
// the shared arena, so the predictor kinds (and Figure 10's baseline)
// replay one generation of each (workload, seed) trace, block by block
// through the batched kernel.
func runOne(p Params, spec workload.Spec, kind sim.Kind, seed int64) sim.Result {
	return buildFigMachine(p, spec, kind).RunBlocks(p.traceAt(spec, seed).Blocks())
}

// Figure9 measures covered/uncovered/overpredicted per workload and
// predictor. Each workload's kind panel replays one resident trace.
func Figure9(p Params) []Fig9Row {
	return forEachWorkload(p, func(spec workload.Spec) Fig9Row {
		machines := make([]*sim.Machine, len(Fig9Kinds))
		for i, kind := range Fig9Kinds {
			machines[i] = buildFigMachine(p, spec, kind)
		}
		results := p.replayPanel(p.traceFor(spec), machines)
		row := Fig9Row{Workload: spec.Name}
		for i, kind := range Fig9Kinds {
			res := results[i]
			row.Cells = append(row.Cells, Fig9Cell{
				Kind:     kind,
				Coverage: res.Coverage(),
				Overpred: res.OverpredictionRate(),
				Result:   res,
			})
		}
		return row
	})
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

// Fig10Row is one workload's speedups with confidence intervals.
type Fig10Row struct {
	Workload string
	// Speedup maps predictor -> sample of (cycles_baseline/cycles - 1)
	// over the seeds.
	Speedup map[sim.Kind]*stats.Sample
}

// Figure10 measures performance improvement over the stride-prefetching
// baseline across seeds (the stand-in for the paper's SimFlex sampling).
//
// Each seed's panel — the stride baseline plus every compared kind —
// replays one generation of the seed's trace. Extra confidence-interval
// seeds never enter the arena at all: their trace lives exactly as long
// as their panel replays, which keeps peak memory near one trace per
// worker.
func Figure10(p Params) []Fig10Row {
	seeds := p.Seeds
	if seeds <= 0 {
		seeds = 1
	}
	return forEachWorkload(p, func(spec workload.Spec) Fig10Row {
		row := Fig10Row{Workload: spec.Name, Speedup: map[sim.Kind]*stats.Sample{}}
		for _, kind := range Fig10Kinds {
			row.Speedup[kind] = &stats.Sample{}
		}
		for s := 0; s < seeds; s++ {
			seed := p.Seed + int64(s)*workload.SeedStride
			var bt *trace.BlockTrace
			if seed == p.Seed {
				// The base seed is shared with every other figure through
				// the arena.
				bt = p.traceAt(spec, seed)
			} else {
				bt = spec.GenerateBlocks(seed, p.accessesFor(spec))
			}
			machines := make([]*sim.Machine, 0, 1+len(Fig10Kinds))
			for _, kind := range append([]sim.Kind{sim.KindStride}, Fig10Kinds...) {
				machines = append(machines, buildFigMachine(p, spec, kind))
			}
			results := p.replayPanel(bt, machines)
			base := results[0]
			for i, kind := range Fig10Kinds {
				row.Speedup[kind].Add(float64(base.Cycles)/float64(results[i+1].Cycles) - 1)
			}
		}
		return row
	})
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

// HybridAblation runs the §5.5 comparison on the commercial workloads
// (the paper quotes the OLTP/web ratio), replaying both machines over one
// resident trace per workload.
func HybridAblation(p Params) []HybridRow {
	var rows []HybridRow
	for _, spec := range workload.Suite() {
		if spec.Class != workload.ClassWeb && spec.Class != workload.ClassOLTP {
			continue
		}
		results := p.replayPanel(p.traceFor(spec), []*sim.Machine{
			buildFigMachine(p, spec, sim.KindNaiveHybrid),
			buildFigMachine(p, spec, sim.KindSTeMS),
		})
		rows = append(rows, hybridRow(spec, results[0], results[1]))
	}
	return rows
}

func hybridRow(spec workload.Spec, naive, st sim.Result) HybridRow {
	return HybridRow{
		Workload:      spec.Name,
		NaiveOverpred: naive.OverpredictionRate(),
		STeMSOverpred: st.OverpredictionRate(),
		NaiveCoverage: naive.Coverage(),
		STeMSCoverage: st.Coverage(),
	}
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

// ---- Fused panels ----

// Panels bundles every figure that replays the base-seed trace: the three
// analysis studies (Figures 6-8), the Figure 9 predictor panel, and the
// §5.5 hybrid ablation.
type Panels struct {
	Fig6   []Fig6Row
	Fig7   []Fig7Row
	Fig8   []Fig8Row
	Fig9   []Fig9Row
	Hybrid []HybridRow
}

// FusedPanels computes all of Panels in one call: per workload, the three
// analysis observers, the Figure 9 predictor kinds, and (on commercial
// workloads) the naive hybrid replay the workload's trace as one panel,
// so the trace is resolved once for every figure that reads it. Results
// are byte-identical to the individual figure functions — observer
// machines and predictor machines share no mutable state — and the
// figures test suite pins the equivalence. The hybrid rows reuse the
// Figure 9 STeMS result (the two figures build identically configured
// machines).
func FusedPanels(p Params) Panels {
	type row struct {
		fig6 Fig6Row
		fig7 Fig7Row
		fig8 Fig8Row
		fig9 Fig9Row
		hyb  *HybridRow
	}
	const analysisMachines = 3
	stemsAt := -1
	for i, kind := range Fig9Kinds {
		if kind == sim.KindSTeMS {
			stemsAt = analysisMachines + i
		}
	}
	rows := forEachWorkload(p, func(spec workload.Spec) row {
		sys := p.system()
		joint := analysis.NewJointCollector(sys, config.DefaultSMS())
		rep := analysis.NewRepetitionCollector(sys)
		corr := analysis.NewCorrDistCollector(sys)
		machines := []*sim.Machine{joint.Machine(), rep.Machine(), corr.Machine()}
		for _, kind := range Fig9Kinds {
			machines = append(machines, buildFigMachine(p, spec, kind))
		}
		commercial := spec.Class == workload.ClassWeb || spec.Class == workload.ClassOLTP
		naiveAt, hybridSTeMSAt := -1, stemsAt
		if commercial {
			naiveAt = len(machines)
			machines = append(machines, buildFigMachine(p, spec, sim.KindNaiveHybrid))
			if hybridSTeMSAt < 0 {
				// Fig9Kinds without STeMS (someone swapped the panel): give
				// the ablation its own machine rather than skipping the row.
				hybridSTeMSAt = len(machines)
				machines = append(machines, buildFigMachine(p, spec, sim.KindSTeMS))
			}
		}
		results := p.replayPanel(p.traceFor(spec), machines)
		out := row{
			fig6: Fig6Row{Workload: spec.Name, Class: spec.Class, Result: joint.Result()},
			fig7: Fig7Row{Workload: spec.Name, Rep: rep.Result()},
			fig8: Fig8Row{Workload: spec.Name, CD: corr.Result()},
			fig9: Fig9Row{Workload: spec.Name},
		}
		for i, kind := range Fig9Kinds {
			res := results[analysisMachines+i]
			out.fig9.Cells = append(out.fig9.Cells, Fig9Cell{
				Kind:     kind,
				Coverage: res.Coverage(),
				Overpred: res.OverpredictionRate(),
				Result:   res,
			})
		}
		if commercial {
			h := hybridRow(spec, results[naiveAt], results[hybridSTeMSAt])
			out.hyb = &h
		}
		return out
	})
	var ps Panels
	for _, r := range rows {
		ps.Fig6 = append(ps.Fig6, r.fig6)
		ps.Fig7 = append(ps.Fig7, r.fig7)
		ps.Fig8 = append(ps.Fig8, r.fig8)
		ps.Fig9 = append(ps.Fig9, r.fig9)
		if r.hyb != nil {
			ps.Hybrid = append(ps.Hybrid, *r.hyb)
		}
	}
	return ps
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
