package figures

import (
	"reflect"
	"strings"
	"testing"

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

func TestFigure6Shape(t *testing.T) {
	rows := Figure6(tinyParams())
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
	rows := Figure7(tinyParams())
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
	rows := Figure8(tinyParams())
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
	rows := Figure9(tinyParams())
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
	rows := Figure10(p)
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
	rows := HybridAblation(tinyParams())
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

// TestFusedPanelsMatchIndividualFigures is the cross-figure equivalence
// gate: one fused pass per workload (analysis observers + predictor
// panel + hybrid sharing a single cursor) must reproduce every row the
// standalone figure functions compute, bit for bit, serial and parallel.
func TestFusedPanelsMatchIndividualFigures(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		p := tinyParams()
		p.Accesses = 12_000
		p.Parallel = parallel
		got := FusedPanels(p)
		if !reflect.DeepEqual(got.Fig6, Figure6(p)) {
			t.Errorf("parallel=%v: fused Figure 6 diverged", parallel)
		}
		if !reflect.DeepEqual(got.Fig7, Figure7(p)) {
			t.Errorf("parallel=%v: fused Figure 7 diverged", parallel)
		}
		if !reflect.DeepEqual(got.Fig8, Figure8(p)) {
			t.Errorf("parallel=%v: fused Figure 8 diverged", parallel)
		}
		if !reflect.DeepEqual(got.Fig9, Figure9(p)) {
			t.Errorf("parallel=%v: fused Figure 9 diverged", parallel)
		}
		if !reflect.DeepEqual(got.Hybrid, HybridAblation(p)) {
			t.Errorf("parallel=%v: fused hybrid ablation diverged", parallel)
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
	p.Parallel = true
	par := Figure6(p)
	p.Parallel = false
	ser := Figure6(p)
	for i := range par {
		if par[i].Result != ser[i].Result {
			t.Fatalf("%s: parallel and serial disagree", par[i].Workload)
		}
	}
}

func TestRunOneUsesScientificLookahead(t *testing.T) {
	p := tinyParams()
	spec, _ := workload.ByName("em3d")
	res := runOne(p, spec, sim.KindSTeMS, 1)
	if res.Accesses == 0 {
		t.Fatal("no accesses simulated")
	}
}

func TestWorkloadsCharacterization(t *testing.T) {
	rows := Workloads(tinyParams())
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
// workload and seed — replays each seed's panel over one generation of
// its trace, so only the base-seed traces (shared with the other
// figures) ever enter the arena. The extra confidence-interval seeds are
// generated privately, consumed by their panel, and never become
// resident anywhere.
func TestFigure10GeneratesEachTraceOnce(t *testing.T) {
	p := DefaultParams()
	p.Accesses = 5_000
	p.Seeds = 2
	Figure10(p)
	st := p.Arena.Stats()
	want := len(workload.Suite())
	if st.Generations != want {
		t.Fatalf("Figure10 put %d traces through the arena, want exactly %d (base seed only)",
			st.Generations, want)
	}
	if st.Regenerated != 0 {
		t.Fatalf("%d traces were generated more than once", st.Regenerated)
	}
	if st.Resident != want {
		t.Fatalf("%d traces resident after Figure10, want %d (base seed only)",
			st.Resident, want)
	}
}

// TestFullFigureRunSharesBaseTraces drives every trace-consuming figure
// through one shared arena (as cmd/paperfigs does) and asserts the whole
// run generates each base-seed trace once, with every additional figure a
// pure cache hit.
func TestFullFigureRunSharesBaseTraces(t *testing.T) {
	p := DefaultParams()
	p.Accesses = 5_000
	p.Seeds = 2
	Figure6(p)
	Figure7(p)
	Figure8(p)
	Figure9(p)
	Figure10(p)
	HybridAblation(p)
	Workloads(p)
	st := p.Arena.Stats()
	suite := len(workload.Suite())
	// Base seeds only: Figure 10's extra confidence-interval seeds
	// bypass the arena.
	want := suite
	if st.Generations != want {
		t.Fatalf("full figure run generated %d traces, want %d", st.Generations, want)
	}
	if st.Regenerated != 0 {
		t.Fatalf("%d traces regenerated during a full figure run", st.Regenerated)
	}
	if st.Hits == 0 {
		t.Fatal("no arena hits across a full figure run")
	}
}

// TestArenaPathMatchesDirectGeneration is the determinism guard for the
// arena rewiring: every figure must render byte-identically whether traces
// come from the shared arena or are regenerated per cell.
func TestArenaPathMatchesDirectGeneration(t *testing.T) {
	base := DefaultParams()
	base.Accesses = 5_000
	base.Seeds = 2

	withArena := base
	withArena.Arena = trace.NewArena()
	direct := base
	direct.Arena = nil

	for _, tc := range []struct {
		name   string
		render func(p Params) string
	}{
		{"fig6", func(p Params) string { return RenderFigure6(Figure6(p)) }},
		{"fig7", func(p Params) string { return RenderFigure7(Figure7(p)) }},
		{"fig8", func(p Params) string { return RenderFigure8(Figure8(p)) }},
		{"fig9", func(p Params) string { return RenderFigure9(Figure9(p)) }},
		{"fig10", func(p Params) string { return RenderFigure10(Figure10(p)) }},
		{"hybrid", func(p Params) string { return RenderHybrid(HybridAblation(p)) }},
	} {
		a := tc.render(withArena)
		d := tc.render(direct)
		if a != d {
			t.Errorf("%s: arena output differs from direct generation:\n--- arena ---\n%s\n--- direct ---\n%s",
				tc.name, a, d)
		}
		// And the arena path must be repeatable with a fresh cache.
		fresh := base
		fresh.Arena = trace.NewArena()
		if again := tc.render(fresh); again != a {
			t.Errorf("%s: arena output not reproducible across arenas", tc.name)
		}
	}
}
