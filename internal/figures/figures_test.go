package figures

import (
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"stems/internal/config"
	"stems/internal/sim"
	"stems/internal/trace"
	"stems/internal/workload"
)

// tinyParams keeps the smoke tests fast.
func tinyParams() Params {
	p := DefaultParams()
	p.Accesses = 30_000
	p.Seeds = 2
	return p
}

// compute runs Compute and fails the test on an error.
func compute(t *testing.T, p Params, figs ...string) Report {
	t.Helper()
	rep, err := Compute(p, figs...)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestFigure6Shape(t *testing.T) {
	rows := compute(t, tinyParams(), "6").Fig6
	if len(rows) != len(workload.Suite()) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Result.Total() == 0 {
			t.Errorf("%s: no misses classified", r.Workload)
		}
		b, tm, s, n := r.Result.Frac()
		sum := b + tm + s + n
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: fractions sum to %v", r.Workload, sum)
		}
	}
	out := RenderFigure6(rows)
	for _, want := range []string{"Figure 6", "Apache", "sparse", "MEAN"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
	// The paper's key DSS observation: TMS is largely ineffective.
	for _, r := range rows {
		if strings.HasPrefix(r.Workload, "Qry") && r.Result.TMSCoverage() > 0.3 {
			t.Errorf("%s: TMS coverage %.2f — DSS should be compulsory-dominated",
				r.Workload, r.Result.TMSCoverage())
		}
	}
}

func TestFigure7Shape(t *testing.T) {
	rows := compute(t, tinyParams(), "7").Fig7
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Rep.AllAddrs.Total() == 0 || r.Rep.Triggers.Total() == 0 {
			t.Errorf("%s: empty taxonomy", r.Workload)
		}
		if r.Rep.TriggerFrac <= 0 || r.Rep.TriggerFrac > 1 {
			t.Errorf("%s: trigger fraction %v", r.Workload, r.Rep.TriggerFrac)
		}
	}
	if out := RenderFigure7(rows); !strings.Contains(out, "Opportunity") {
		t.Error("render missing opportunity column")
	}
}

func TestFigure8Shape(t *testing.T) {
	rows := compute(t, tinyParams(), "8").Fig8
	for _, r := range rows {
		if r.CD.Pairs == 0 {
			t.Errorf("%s: no pairs", r.Workload)
			continue
		}
		if w2, w4 := r.CD.WithinWindow(2), r.CD.WithinWindow(4); w4 < w2 {
			t.Errorf("%s: window(4)=%v < window(2)=%v", r.Workload, w4, w2)
		}
	}
	if out := RenderFigure8(rows); !strings.Contains(out, "win<=2") {
		t.Error("render missing window columns")
	}
}

func TestFigure9Shape(t *testing.T) {
	rows := compute(t, tinyParams(), "9").Fig9
	for _, r := range rows {
		if len(r.Cells) != 3 {
			t.Fatalf("%s: %d cells", r.Workload, len(r.Cells))
		}
		for _, c := range r.Cells {
			if c.Coverage < 0 || c.Coverage > 1 {
				t.Errorf("%s/%s: coverage %v", r.Workload, c.Kind, c.Coverage)
			}
			if c.Overpred < 0 {
				t.Errorf("%s/%s: negative overprediction", r.Workload, c.Kind)
			}
		}
	}
	if out := RenderFigure9(rows); !strings.Contains(out, "Overpredicted") {
		t.Error("render missing columns")
	}
}

func TestFigure10Shape(t *testing.T) {
	p := tinyParams()
	rows := compute(t, p, "10").Fig10
	for _, r := range rows {
		for _, k := range Fig10Kinds {
			s, ok := r.Speedup[k]
			if !ok || s.N() != p.Seeds {
				t.Fatalf("%s/%s: %d samples, want %d", r.Workload, k, s.N(), p.Seeds)
			}
		}
	}
	if out := RenderFigure10(rows); !strings.Contains(out, "±") {
		t.Error("render missing confidence intervals")
	}
}

func TestHybridAblationShape(t *testing.T) {
	rows := compute(t, tinyParams(), "hybrid").Hybrid
	if len(rows) != 4 { // Apache, Zeus, DB2, Oracle
		t.Fatalf("rows = %d, want the 4 OLTP/web workloads", len(rows))
	}
	for _, r := range rows {
		if r.NaiveOverpred <= r.STeMSOverpred {
			t.Errorf("%s: naive overprediction (%.2f) not worse than STeMS (%.2f)",
				r.Workload, r.NaiveOverpred, r.STeMSOverpred)
		}
	}
	if out := RenderHybrid(rows); !strings.Contains(out, "ratio") {
		t.Error("render missing ratio")
	}
}

// TestRenderMatchesGolden pins every byte cmd/paperfigs prints for
// `-fig all -accesses 30000 -seeds 2`: Table 1 and every figure, rendered
// by Report.Render, the code paperfigs prints with. After a deliberate
// output change, regenerate the file from the repository root with
//
//	go run ./cmd/paperfigs -fig all -accesses 30000 -seeds 2 > internal/figures/testdata/all_30000_seeds2.golden
func TestRenderMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/all_30000_seeds2.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := compute(t, tinyParams(), Figures...).Render()
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("render differs from the golden at line %d:\n got: %q\nwant: %q", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("render has %d lines, the golden %d", len(gl), len(wl))
}

// TestAllFiguresMatchEachAlone is the cross-figure equivalence gate:
// computing every figure in one call, where runs two figures share replay
// once, must give each figure exactly the rows it gets computed alone,
// serially and GOMAXPROCS wide.
func TestAllFiguresMatchEachAlone(t *testing.T) {
	for _, parallelism := range []int{1, 0} {
		p := tinyParams()
		p.Accesses = 12_000
		p.Parallelism = parallelism
		all := reflect.ValueOf(compute(t, p, Figures...))
		for _, f := range Figures {
			alone := reflect.ValueOf(compute(t, p, f))
			for i := 0; i < alone.NumField(); i++ {
				rows := alone.Field(i)
				if rows.Kind() != reflect.Slice || rows.IsNil() {
					continue
				}
				if !reflect.DeepEqual(rows.Interface(), all.Field(i).Interface()) {
					t.Errorf("parallelism=%d: figure %s computed with the others diverged from it alone",
						parallelism, f)
				}
			}
		}
	}
}

func TestTable1Render(t *testing.T) {
	out := RenderTable1()
	for _, want := range []string{"640.0 KB", "2.5 KB", "1024.0 KB", "Apache"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 render missing %q", want)
		}
	}
}

func TestSerialMatchesParallel(t *testing.T) {
	p := tinyParams()
	p.Accesses = 10_000
	p.Parallelism = 0
	par := compute(t, p, Figures...)
	p.Parallelism = 1
	ser := compute(t, p, Figures...)
	if !reflect.DeepEqual(par, ser) {
		t.Fatalf("parallelism 0 (GOMAXPROCS=%d) and 1 disagree", runtime.GOMAXPROCS(0))
	}
}

// TestFigureRunUsesScientificLookahead pins what a figure's predictor run
// is: the registered predictor with sim.DefaultOptions on the run's
// system, the §4.3 scientific lookahead set by the workload's class,
// replaying the workload's trace. At 30k and 60k accesses the lookahead
// does not change em3d's STeMS result; at 120k it does.
func TestFigureRunUsesScientificLookahead(t *testing.T) {
	p := DefaultParams()
	p.Accesses = 120_000
	rows := compute(t, p, "9").Fig9
	figureRun := func(name string) sim.Result {
		for _, r := range rows {
			for _, c := range r.Cells {
				if r.Workload == name && c.Kind == sim.KindSTeMS {
					return c.Result
				}
			}
		}
		t.Fatalf("no STeMS cell for %s", name)
		return sim.Result{}
	}
	replay := func(name string, scientific bool) sim.Result {
		spec, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		opt := sim.DefaultOptions()
		opt.System = config.ScaledSystem()
		opt.Scientific = scientific
		m, err := sim.Build(sim.KindSTeMS, opt)
		if err != nil {
			t.Fatal(err)
		}
		return m.RunBlocks(spec.GenerateBlocks(p.Seed, p.Accesses).Blocks())
	}
	em3d := figureRun("em3d")
	if want := replay("em3d", true); em3d != want {
		t.Errorf("em3d STeMS figure run = %+v, want the Scientific replay %+v", em3d, want)
	}
	if em3d == replay("em3d", false) {
		t.Error("em3d STeMS figure run equals the non-scientific replay: the lookahead is not pinned at this length")
	}
	if db2, want := figureRun("DB2"), replay("DB2", false); db2 != want {
		t.Errorf("DB2 STeMS figure run = %+v, want the non-scientific replay %+v", db2, want)
	}
}

func TestWorkloadsCharacterization(t *testing.T) {
	rows := compute(t, tinyParams(), "workloads").Workloads
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]WorkloadRow{}
	for _, r := range rows {
		byName[r.Workload] = r
		if r.Accesses == 0 || r.Footprint == 0 {
			t.Errorf("%s: empty characterization", r.Workload)
		}
		if r.StallFrac < 0 || r.StallFrac > 1 {
			t.Errorf("%s: stall fraction %v", r.Workload, r.StallFrac)
		}
	}
	// §5.6: Oracle spends much less of its time off chip than DB2.
	if byName["Oracle"].StallFrac >= byName["DB2"].StallFrac {
		t.Errorf("Oracle stall (%v) not below DB2 (%v)",
			byName["Oracle"].StallFrac, byName["DB2"].StallFrac)
	}
	// DSS misses are scan-dominated: low dependent fraction.
	if byName["Qry2"].DepFrac > byName["DB2"].DepFrac {
		t.Error("DSS dependent-miss share not below OLTP")
	}
	if out := RenderWorkloads(rows); out == "" {
		t.Error("empty render")
	}
}

// TestFigure10GeneratesEachTraceOnce is the trace-economy acceptance
// check: a full Figure 10 run — 1 baseline + 3 predictor kinds over every
// workload and seed — generates each seed's trace once, through the
// arena, for the four runs that replay it. The extra confidence-interval
// seeds leave the arena as their last run lands, so only the base-seed
// traces (shared with the other figures) stay resident.
func TestFigure10GeneratesEachTraceOnce(t *testing.T) {
	p := DefaultParams()
	p.Accesses = 5_000
	p.Seeds = 2
	compute(t, p, "10")
	st := p.Arena.Stats()
	suite := len(workload.Suite())
	if want := suite * p.Seeds; st.Generations != want {
		t.Fatalf("Figure 10 put %d traces through the arena, want exactly %d (suite x seeds)",
			st.Generations, want)
	}
	if st.Regenerated != 0 {
		t.Fatalf("%d traces were generated more than once", st.Regenerated)
	}
	if st.Resident != suite {
		t.Fatalf("%d traces resident after Figure 10, want %d (base seed only)",
			st.Resident, suite)
	}
}

// TestFullFigureRunSharesBaseTraces computes every trace-consuming figure
// through one shared arena (as cmd/paperfigs does) and asserts the whole
// run generates each trace once, with every other run and study over it a
// pure cache hit.
func TestFullFigureRunSharesBaseTraces(t *testing.T) {
	p := DefaultParams()
	p.Accesses = 5_000
	p.Seeds = 2
	compute(t, p, Figures...)
	st := p.Arena.Stats()
	suite := len(workload.Suite())
	if want := suite * p.Seeds; st.Generations != want {
		t.Fatalf("full figure run generated %d traces, want %d (suite x seeds)", st.Generations, want)
	}
	if st.Regenerated != 0 {
		t.Fatalf("%d traces regenerated during a full figure run", st.Regenerated)
	}
	if st.Resident != suite {
		t.Fatalf("%d traces resident after a full figure run, want %d (base seed only)", st.Resident, suite)
	}
	if st.Hits == 0 {
		t.Fatal("no arena hits across a full figure run")
	}
}

// TestArenaPathMatchesDirectGeneration is the determinism guard for the
// arena: every figure must render byte-identically whether traces come
// from the shared arena or are regenerated per run.
func TestArenaPathMatchesDirectGeneration(t *testing.T) {
	base := DefaultParams()
	base.Accesses = 5_000
	base.Seeds = 2

	withArena := base
	withArena.Arena = trace.NewArena()
	direct := base
	direct.Arena = nil

	for _, f := range Figures {
		a := compute(t, withArena, f).Render()
		d := compute(t, direct, f).Render()
		if a != d {
			t.Errorf("%s: arena output differs from direct generation:\n--- arena ---\n%s\n--- direct ---\n%s",
				f, a, d)
		}
		// And the arena path must be repeatable with a fresh cache.
		fresh := base
		fresh.Arena = trace.NewArena()
		if again := compute(t, fresh, f).Render(); again != a {
			t.Errorf("%s: arena output not reproducible across arenas", f)
		}
	}
}
