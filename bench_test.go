// Package stems_test holds the repository-level benchmark harness: one
// benchmark per table/figure of the paper's evaluation plus the ablation
// benchmarks DESIGN.md calls out. Reported custom metrics carry the
// headline quantity of the corresponding figure, so
//
//	go test -bench=. -benchmem
//
// regenerates the numbers recorded in EXPERIMENTS.md (at reduced trace
// length; use cmd/paperfigs for the full-scale tables).
package stems_test

import (
	"context"
	"sort"
	"testing"
	"time"

	"stems"
	"stems/internal/config"
	"stems/internal/core"
	"stems/internal/figures"
	"stems/internal/sim"
	"stems/internal/stream"
	"stems/internal/trace"
	"stems/internal/workload"
)

// benchParams is the reduced scale used by benchmarks.
func benchParams() figures.Params {
	p := figures.DefaultParams()
	p.Accesses = 100_000
	p.Seeds = 2
	return p
}

// benchFigure computes one figure at the benchmark scale.
func benchFigure(b *testing.B, fig string) figures.Report {
	b.Helper()
	rep, err := figures.Compute(benchParams(), fig)
	if err != nil {
		b.Fatal(err)
	}
	return rep
}

// BenchmarkTable1Config exercises configuration validation and the §4.3
// storage arithmetic.
func BenchmarkTable1Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := config.DefaultSystem().Validate(); err != nil {
			b.Fatal(err)
		}
		st := config.Storage(config.DefaultSMS(), config.DefaultTMS(), config.DefaultSTeMS())
		if st.PST != 640<<10 {
			b.Fatal("storage arithmetic broken")
		}
	}
	_ = figures.RenderTable1()
}

// BenchmarkFig6JointCoverage regenerates Figure 6 and reports the mean
// joint (TMS∪SMS) coverage — the paper's headline is 70%.
func BenchmarkFig6JointCoverage(b *testing.B) {
	var joint float64
	for i := 0; i < b.N; i++ {
		rows := benchFigure(b, "6").Fig6
		joint = 0
		for _, r := range rows {
			joint += r.Result.JointCoverage()
		}
		joint /= float64(len(rows))
	}
	b.ReportMetric(100*joint, "joint-cov-%")
}

// BenchmarkFig7Sequitur regenerates Figure 7 and reports the mean
// trigger-sequence opportunity (paper: 47%).
func BenchmarkFig7Sequitur(b *testing.B) {
	var opp float64
	for i := 0; i < b.N; i++ {
		rows := benchFigure(b, "7").Fig7
		opp = 0
		for _, r := range rows {
			opp += r.Rep.Triggers.OpportunityFrac()
		}
		opp /= float64(len(rows))
	}
	b.ReportMetric(100*opp, "trigger-opportunity-%")
}

// BenchmarkFig8CorrDist regenerates Figure 8 and reports the mean fraction
// of region accesses recurring within a reordering window of two (paper:
// over 86%).
func BenchmarkFig8CorrDist(b *testing.B) {
	var w2 float64
	for i := 0; i < b.N; i++ {
		rows := benchFigure(b, "8").Fig8
		w2 = 0
		for _, r := range rows {
			w2 += r.CD.WithinWindow(2)
		}
		w2 /= float64(len(rows))
	}
	b.ReportMetric(100*w2, "window2-%")
}

// BenchmarkFig9Coverage regenerates Figure 9 and reports STeMS's mean
// coverage and overprediction rate (paper: 62% / 29%).
func BenchmarkFig9Coverage(b *testing.B) {
	var cov, over float64
	for i := 0; i < b.N; i++ {
		rows := benchFigure(b, "9").Fig9
		cov, over = 0, 0
		for _, r := range rows {
			for _, c := range r.Cells {
				if c.Kind == sim.KindSTeMS {
					cov += c.Coverage
					over += c.Overpred
				}
			}
		}
		cov /= float64(len(rows))
		over /= float64(len(rows))
	}
	b.ReportMetric(100*cov, "stems-cov-%")
	b.ReportMetric(100*over, "stems-overpred-%")
}

// BenchmarkFig10Speedup regenerates Figure 10 and reports STeMS's mean
// speedup over the stride baseline (paper: 31%).
func BenchmarkFig10Speedup(b *testing.B) {
	var sp float64
	for i := 0; i < b.N; i++ {
		rows := benchFigure(b, "10").Fig10
		sp = 0
		for _, r := range rows {
			sp += r.Speedup[sim.KindSTeMS].Mean()
		}
		sp /= float64(len(rows))
	}
	b.ReportMetric(100*sp, "stems-speedup-%")
}

// BenchmarkHybridOverprediction runs the §5.5 ablation: the naive TMS+SMS
// combination against STeMS on OLTP/web; the paper quotes a 2-3x
// overprediction ratio.
func BenchmarkHybridOverprediction(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows := benchFigure(b, "hybrid").Hybrid
		ratio = 0
		for _, r := range rows {
			ratio += r.Ratio()
		}
		ratio /= float64(len(rows))
	}
	b.ReportMetric(ratio, "naive/stems-overpred-x")
}

// runSTeMSWith runs one workload under a customized STeMS configuration
// and returns the machine result plus the predictor for stats inspection.
func runSTeMSWith(b *testing.B, wl string, n int, mod func(*config.STeMS)) (sim.Result, *core.STeMS) {
	b.Helper()
	spec, err := workload.ByName(wl)
	if err != nil {
		b.Fatal(err)
	}
	sc := config.DefaultSTeMS()
	if spec.Scientific {
		sc.Lookahead = 12
	}
	mod(&sc)
	m := sim.NewMachine(config.ScaledSystem(), sim.Nop{})
	eng := m.AttachEngine(stream.Config{
		Queues: sc.StreamQueues, Lookahead: sc.Lookahead, SVBEntries: sc.SVBEntries,
	})
	st := core.New(sc, eng)
	m.SetPrefetcher(st)
	res := m.RunBlocks(spec.GenerateBlocks(1, n).Blocks())
	return res, st
}

// BenchmarkAblationCounters compares 2-bit saturating counters against bit
// vectors in the PST (§4.3: "2-bit counters attain the same coverage while
// roughly halving overpredictions").
func BenchmarkAblationCounters(b *testing.B) {
	var covC, covB, overC, overB float64
	for i := 0; i < b.N; i++ {
		resC, _ := runSTeMSWith(b, "em3d", 150_000, func(c *config.STeMS) { c.UseCounters = true })
		resB, _ := runSTeMSWith(b, "em3d", 150_000, func(c *config.STeMS) { c.UseCounters = false })
		covC, overC = resC.Coverage(), resC.OverpredictionRate()
		covB, overB = resB.Coverage(), resB.OverpredictionRate()
	}
	b.ReportMetric(100*covC, "counters-cov-%")
	b.ReportMetric(100*overC, "counters-overpred-%")
	b.ReportMetric(100*covB, "bitvec-cov-%")
	b.ReportMetric(100*overB, "bitvec-overpred-%")
}

// BenchmarkAblationReconWindow sweeps the reconstruction collision-search
// distance (§4.3: ±2 places 99% of addresses, 92% in the original slot).
func BenchmarkAblationReconWindow(b *testing.B) {
	for _, search := range []int{0, 1, 2, 4} {
		b.Run(map[int]string{0: "s0", 1: "s1", 2: "s2", 4: "s4"}[search], func(b *testing.B) {
			var exact, placed float64
			for i := 0; i < b.N; i++ {
				_, st := runSTeMSWith(b, "DB2", 100_000, func(c *config.STeMS) { c.ReconSearch = search })
				rs := st.ReconStats()
				total := float64(rs.PlacedExact + rs.PlacedNear + rs.Dropped)
				if total > 0 {
					exact = float64(rs.PlacedExact) / total
					placed = float64(rs.PlacedExact+rs.PlacedNear) / total
				}
			}
			b.ReportMetric(100*exact, "exact-%")
			b.ReportMetric(100*placed, "placed-%")
		})
	}
}

// BenchmarkAblationRMOBSize sweeps the RMOB capacity on em3d, where §4.3
// notes the buffer "must capture the miss sequence of an entire iteration
// to provide any coverage".
func BenchmarkAblationRMOBSize(b *testing.B) {
	for _, entries := range []int{8 << 10, 32 << 10, 128 << 10} {
		name := map[int]string{8 << 10: "8K", 32 << 10: "32K", 128 << 10: "128K"}[entries]
		b.Run(name, func(b *testing.B) {
			var cov float64
			for i := 0; i < b.N; i++ {
				res, _ := runSTeMSWith(b, "em3d", 150_000, func(c *config.STeMS) { c.RMOBEntries = entries })
				cov = res.Coverage()
			}
			b.ReportMetric(100*cov, "cov-%")
		})
	}
}

// BenchmarkAblationLookahead sweeps the stream lookahead (§4.3: "stream
// lookahead ... controls timeliness and mispredictions").
func BenchmarkAblationLookahead(b *testing.B) {
	for _, la := range []int{2, 8, 16} {
		name := map[int]string{2: "la2", 8: "la8", 16: "la16"}[la]
		b.Run(name, func(b *testing.B) {
			var cov, over float64
			for i := 0; i < b.N; i++ {
				res, _ := runSTeMSWith(b, "Zeus", 100_000, func(c *config.STeMS) { c.Lookahead = la })
				cov, over = res.Coverage(), res.OverpredictionRate()
			}
			b.ReportMetric(100*cov, "cov-%")
			b.ReportMetric(100*over, "overpred-%")
		})
	}
}

// BenchmarkAblationStreamQueues sweeps the number of stream queues (§4.3:
// "several stream queues are necessary to prevent thrashing when new
// streams are initiated on misses").
func BenchmarkAblationStreamQueues(b *testing.B) {
	for _, q := range []int{1, 4, 8} {
		name := map[int]string{1: "q1", 4: "q4", 8: "q8"}[q]
		b.Run(name, func(b *testing.B) {
			var cov float64
			for i := 0; i < b.N; i++ {
				res, _ := runSTeMSWith(b, "DB2", 100_000, func(c *config.STeMS) { c.StreamQueues = q })
				cov = res.Coverage()
			}
			b.ReportMetric(100*cov, "cov-%")
		})
	}
}

// benchSimBlocks replays a 200k-access DB2 trace, resident as a
// BlockTrace, whole through its cursor and Machine.StepBlock once per
// iteration, starting a fresh machine each time so no predictor or cache
// state bleeds between iterations. Each machine is built with the timer
// stopped, so the accesses/sec metric times replay alone at any
// -benchtime — the end-to-end replay number of README.md.
func benchSimBlocks(b *testing.B, mk func(b *testing.B) *sim.Machine) {
	b.Helper()
	spec, _ := workload.ByName("DB2")
	bt := spec.GenerateBlocks(1, 200_000)
	var blk trace.Block
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := mk(b)
		b.StartTimer()
		for cur := bt.Blocks(); cur.NextBlock(&blk); {
			m.StepBlock(&blk)
		}
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)*float64(bt.Len())/secs, "accesses/sec")
	}
}

// BenchmarkSimBlocksSTeMS measures block-pipeline throughput with the full
// STeMS predictor — the headline replay number.
func BenchmarkSimBlocksSTeMS(b *testing.B) {
	opt := sim.DefaultOptions()
	opt.System = config.ScaledSystem()
	benchSimBlocks(b, func(b *testing.B) *sim.Machine {
		m, err := sim.Build(sim.KindSTeMS, opt)
		if err != nil {
			b.Fatal(err)
		}
		return m
	})
}

// BenchmarkSimBlocksBaseline measures the block kernel with no prefetcher:
// the cache model plus the batched loop, nothing else.
func BenchmarkSimBlocksBaseline(b *testing.B) {
	benchSimBlocks(b, func(b *testing.B) *sim.Machine {
		return sim.NewMachine(config.ScaledSystem(), sim.Nop{})
	})
}

// BenchmarkStepBlockMedianSTeMS is the benchgate kernel probe: K full
// DB2 replays through fresh STeMS machines per iteration, reporting the
// MEDIAN per-access latency as "median-step-ns". The median of whole-trace
// replays is stable enough to threshold on shared runners — unlike raw
// 1-iteration ns/op samples — so scripts/benchgate gates this metric
// (lower is better) to catch kernel regressions even when the service
// path masks them.
func BenchmarkStepBlockMedianSTeMS(b *testing.B) {
	const replays = 5
	spec, _ := workload.ByName("DB2")
	const accesses = 200_000
	bt := trace.NewBlockTrace(spec.Generate(1, accesses))
	opt := sim.DefaultOptions()
	opt.System = config.ScaledSystem()
	var median float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		samples := make([]float64, replays)
		for r := 0; r < replays; r++ {
			m, err := sim.Build(sim.KindSTeMS, opt)
			if err != nil {
				b.Fatal(err)
			}
			start := time.Now()
			m.RunBlocks(bt.Blocks())
			samples[r] = float64(time.Since(start).Nanoseconds()) / accesses
		}
		sort.Float64s(samples)
		median = samples[replays/2]
	}
	b.ReportMetric(median, "median-step-ns")
	b.ReportMetric(0, "ns/op") // the headline is the median, not the K-replay total
}

// fig10CellMachines builds one seed panel of a Figure 10 cell: the
// stride baseline plus the three compared predictor kinds.
func fig10CellMachines(b *testing.B, opt sim.Options) []*sim.Machine {
	b.Helper()
	kinds := append([]sim.Kind{sim.KindStride}, figures.Fig10Kinds...)
	machines := make([]*sim.Machine, len(kinds))
	for i, kind := range kinds {
		m, err := sim.Build(kind, opt)
		if err != nil {
			b.Fatal(err)
		}
		machines[i] = m
	}
	return machines
}

// BenchmarkFig10CellSeqSeeds measures one Figure 10 cell: 5
// confidence-interval seeds of the DB2 workload, each seed's panel
// (stride baseline + 3 kinds) replayed one machine at a time.
func BenchmarkFig10CellSeqSeeds(b *testing.B) {
	spec, _ := workload.ByName("DB2")
	const accesses, seeds = 100_000, 5
	opt := sim.DefaultOptions()
	opt.System = config.ScaledSystem()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s < seeds; s++ {
			bt := spec.GenerateBlocks(1+int64(s)*stems.SeedStride, accesses)
			for _, m := range fig10CellMachines(b, opt) {
				m.RunBlocks(bt.Blocks())
			}
		}
	}
}

// sweepBenchGrid builds the multi-predictor same-trace grid
// BenchmarkSweep replays: one DB2 cell, four predictor kinds, one shared
// arena so trace generation is paid once per iteration.
func sweepBenchGrid(b *testing.B, arena *stems.Arena, accesses int) []*stems.Runner {
	b.Helper()
	preds := []string{"stride", "sms", "tms", "stems"}
	grid := make([]*stems.Runner, len(preds))
	for i, pred := range preds {
		r, err := stems.New(
			stems.WithPredictor(pred),
			stems.WithWorkload("DB2"),
			stems.WithSeed(1),
			stems.WithAccesses(accesses),
			stems.WithSystem(stems.ScaledSystem()),
			stems.WithSharedTrace(arena),
		)
		if err != nil {
			b.Fatal(err)
		}
		grid[i] = r
	}
	return grid
}

// BenchmarkSweep replays a four-predictor grid over one 100k-access DB2
// trace through stems.Sweep at default parallelism: the arena generates
// the trace once per iteration, and each run replays it on its own
// cursor. CI gates its accesses/sec against bench/baseline.json.
func BenchmarkSweep(b *testing.B) {
	const accesses = 100_000
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arena := stems.NewArena()
		grid := sweepBenchGrid(b, arena, accesses)
		if _, err := stems.Sweep(ctx, grid); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(4*accesses)*float64(b.N)/b.Elapsed().Seconds(), "accesses/sec")
}

// BenchmarkTraceMemory reports the resident bytes/access of the two trace
// representations the arena can hold: the legacy []Access versus the
// columnar BlockTrace. The ratio is the arena footprint win.
func BenchmarkTraceMemory(b *testing.B) {
	spec, _ := workload.ByName("DB2")
	var aos, soa float64
	for i := 0; i < b.N; i++ {
		accs := spec.Generate(1, 100_000)
		bt := trace.NewBlockTrace(accs)
		aos = 24 * float64(len(accs)) // unsafe.Sizeof(trace.Access{})
		soa = float64(bt.MemBytes()) / float64(bt.Len())
	}
	b.ReportMetric(aos/100_000, "aos-bytes/access")
	b.ReportMetric(soa, "soa-bytes/access")
}

// BenchmarkWorkloadGen measures trace generation throughput.
func BenchmarkWorkloadGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = workload.GenerateOLTPDB2(int64(i), 50_000)
	}
}

// BenchmarkAblationAdaptiveLookahead compares fixed lookahead against the
// adaptive-lookahead extension (direction of §6's self-repairing /
// adaptive-stream-detection related work) on a timeliness-sensitive
// workload.
func BenchmarkAblationAdaptiveLookahead(b *testing.B) {
	run := func(adaptive bool) sim.Result {
		spec, _ := workload.ByName("em3d")
		opt := sim.DefaultOptions()
		opt.System = config.ScaledSystem()
		opt.Scientific = true
		opt.AdaptiveLookahead = adaptive
		m, err := sim.Build(sim.KindSTeMS, opt)
		if err != nil {
			b.Fatal(err)
		}
		return m.RunBlocks(spec.GenerateBlocks(1, 150_000).Blocks())
	}
	var fixed, adaptive sim.Result
	for i := 0; i < b.N; i++ {
		fixed = run(false)
		adaptive = run(true)
	}
	b.ReportMetric(100*fixed.Coverage(), "fixed-cov-%")
	b.ReportMetric(float64(fixed.Cycles), "fixed-cycles")
	b.ReportMetric(100*adaptive.Coverage(), "adaptive-cov-%")
	b.ReportMetric(float64(adaptive.Cycles), "adaptive-cycles")
}

// BenchmarkAblationVirtualizedMeta measures the cost of predictor
// virtualization (§6, reference [2]): STeMS with its PST/RMOB behind an
// on-chip metadata cache whose misses consume memory bandwidth. The paper
// direction claims the overhead is small; the metrics report the cycle
// overhead and metadata traffic.
func BenchmarkAblationVirtualizedMeta(b *testing.B) {
	run := func(virtual bool) sim.Result {
		spec, _ := workload.ByName("DB2")
		opt := sim.DefaultOptions()
		opt.System = config.ScaledSystem()
		opt.VirtualizedMeta = virtual
		m, err := sim.Build(sim.KindSTeMS, opt)
		if err != nil {
			b.Fatal(err)
		}
		return m.RunBlocks(spec.GenerateBlocks(1, 100_000).Blocks())
	}
	var dedicated, virtualized sim.Result
	for i := 0; i < b.N; i++ {
		dedicated = run(false)
		virtualized = run(true)
	}
	overhead := float64(virtualized.Cycles)/float64(dedicated.Cycles) - 1
	b.ReportMetric(100*overhead, "cycle-overhead-%")
	b.ReportMetric(float64(virtualized.MetaTransfers), "meta-transfers")
	b.ReportMetric(100*virtualized.Coverage(), "virt-cov-%")
}

// BenchmarkEpochExtension compares the §6 epoch-based correlation
// prefetcher (reference [6]) against TMS on OLTP: similar dependent-miss
// coverage mechanisms, but the epoch table tracks one entry per epoch
// instead of one CMOB entry per miss.
func BenchmarkEpochExtension(b *testing.B) {
	run := func(kind sim.Kind) sim.Result {
		spec, _ := workload.ByName("DB2")
		opt := sim.DefaultOptions()
		opt.System = config.ScaledSystem()
		m, err := sim.Build(kind, opt)
		if err != nil {
			b.Fatal(err)
		}
		return m.RunBlocks(spec.GenerateBlocks(1, 100_000).Blocks())
	}
	var ep, tm sim.Result
	for i := 0; i < b.N; i++ {
		ep = run(sim.KindEpoch)
		tm = run(sim.KindTMS)
	}
	b.ReportMetric(100*ep.Coverage(), "epoch-cov-%")
	b.ReportMetric(100*ep.OverpredictionRate(), "epoch-overpred-%")
	b.ReportMetric(100*tm.Coverage(), "tms-cov-%")
	b.ReportMetric(100*tm.OverpredictionRate(), "tms-overpred-%")
}
