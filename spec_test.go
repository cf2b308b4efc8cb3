package stems_test

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"stems"
)

// TestWithKnobsMatchesConfigure is half the acceptance criterion: a run
// configured imperatively (WithConfigure closure) and the equivalent
// declarative knob map must produce byte-identical results.
func TestWithKnobsMatchesConfigure(t *testing.T) {
	ctx := context.Background()
	imperative, err := stems.New(
		stems.WithWorkload("em3d"),
		stems.WithAccesses(20_000),
		stems.WithSystem(stems.ScaledSystem()),
		stems.WithConfigure(func(o *stems.Options) {
			o.STeMS.RMOBEntries = 16 << 10
			o.STeMS.Lookahead = 4
			o.Scientific = false
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	declarative, err := stems.New(
		stems.WithWorkload("em3d"),
		stems.WithAccesses(20_000),
		stems.WithSystem(stems.ScaledSystem()),
		stems.WithKnobs(map[string]stems.Value{
			"stems.rmob_entries": stems.IntValue(16 << 10),
			"stems.lookahead":    stems.IntValue(4),
			"scientific":         stems.BoolValue(false),
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if imperative.Options() != declarative.Options() {
		t.Fatalf("effective options differ:\n configure: %+v\n knobs:     %+v",
			imperative.Options(), declarative.Options())
	}
	a, err := imperative.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b, err := declarative.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ab, _ := json.Marshal(stems.EncodeResult("", a))
	bb, _ := json.Marshal(stems.EncodeResult("", b))
	if string(ab) != string(bb) {
		t.Errorf("results differ:\n configure: %s\n knobs:     %s", ab, bb)
	}
}

// TestSpecRoundTrip: Runner → Spec → FromSpec reproduces the effective
// configuration exactly, including WithConfigure edits the spec has to
// express as knob diffs.
func TestSpecRoundTrip(t *testing.T) {
	r, err := stems.New(
		stems.WithPredictor("stems"),
		stems.WithWorkload("Zeus"),
		stems.WithSeed(7),
		stems.WithAccesses(12_345),
		stems.WithLabel("round-trip"),
		stems.WithSystem(stems.ScaledSystem()),
		stems.WithConfigure(func(o *stems.Options) {
			o.STeMS.PSTEntries = 4 << 10
			o.System.MLP = 2.5
			o.SMS.UseCounters = false
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := r.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Predictor != "stems" || spec.Workload != "Zeus" || spec.Seed != 7 ||
		spec.Accesses != 12_345 || spec.Label != "round-trip" || spec.System != "scaled" {
		t.Errorf("spec fields = %+v", spec)
	}
	for _, want := range []string{"stems.pst_entries", "system.mlp", "sms.use_counters"} {
		if _, ok := spec.Knobs[want]; !ok {
			t.Errorf("spec.Knobs missing %q: %v", want, spec.Knobs)
		}
	}

	back, err := stems.FromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if back.Options() != r.Options() {
		t.Errorf("round-tripped options differ:\n got  %+v\n want %+v", back.Options(), r.Options())
	}
	if back.Predictor() != r.Predictor() || back.Label() != r.Label() {
		t.Errorf("identity fields differ: %s/%s vs %s/%s",
			back.Predictor(), back.Label(), r.Predictor(), r.Label())
	}

	// A spec is wire data: it must survive JSON untouched.
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var decoded stems.Spec
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	viaWire, err := stems.FromSpec(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if viaWire.Options() != r.Options() {
		t.Errorf("options differ after a JSON hop:\n got  %+v\n want %+v", viaWire.Options(), r.Options())
	}
}

// TestSpecOfDefaultRunnerNamesPaperSystem: New's default is the paper
// system, the wire default is scaled — Spec must say so explicitly.
func TestSpecOfDefaultRunnerNamesPaperSystem(t *testing.T) {
	r, err := stems.New()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := r.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.System != "paper" {
		t.Errorf("System = %q, want \"paper\"", spec.System)
	}
	if len(spec.Knobs) != 0 {
		t.Errorf("default Runner has knob diffs: %v", spec.Knobs)
	}
	back, err := stems.FromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if back.Options() != r.Options() {
		t.Errorf("options differ:\n got  %+v\n want %+v", back.Options(), r.Options())
	}
}

// TestSpecCustomSystemAsKnobs: a hand-built system serializes as
// system.* knob diffs against whichever named baseline needs fewer of
// them (both need two here, so the scaled wire default wins the tie).
func TestSpecCustomSystemAsKnobs(t *testing.T) {
	sys := stems.PaperSystem()
	sys.L2SizeBytes = 2 << 20
	sys.MLP = 8
	r, err := stems.New(stems.WithWorkload("DB2"), stems.WithSystem(sys))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := r.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.System != "scaled" && spec.System != "paper" {
		t.Errorf("System = %q, want a named baseline", spec.System)
	}
	if v, ok := spec.Knobs["system.l2_size_bytes"]; !ok || v != stems.IntValue(2<<20) {
		t.Errorf("knobs = %v, want system.l2_size_bytes=2MB", spec.Knobs)
	}
	back, err := stems.FromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if back.Options() != r.Options() {
		t.Errorf("options differ:\n got  %+v\n want %+v", back.Options(), r.Options())
	}
}

// TestSpecScientificDefaulting: the workload-class lookahead default is
// part of the baseline, not a knob diff — and pinning it off is one.
func TestSpecScientificDefaulting(t *testing.T) {
	r, err := stems.New(stems.WithWorkload("em3d")) // scientific workload
	if err != nil {
		t.Fatal(err)
	}
	spec, err := r.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Knobs) != 0 {
		t.Errorf("class-defaulted run should have no knob diffs, got %v", spec.Knobs)
	}

	pinned, err := stems.New(stems.WithWorkload("em3d"),
		stems.WithKnobs(map[string]stems.Value{"scientific": stems.BoolValue(false)}))
	if err != nil {
		t.Fatal(err)
	}
	pspec, err := pinned.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := pspec.Knobs["scientific"]; !ok || v != stems.BoolValue(false) {
		t.Errorf("pinned scientific flag not in spec: %v", pspec.Knobs)
	}
	back, err := stems.FromSpec(pspec)
	if err != nil {
		t.Fatal(err)
	}
	if back.Options().Scientific {
		t.Error("round-tripped spec lost the pinned scientific=false")
	}
}

// TestWithKnobsValidation: bad knob maps fail New with the offending
// knob named.
func TestWithKnobsValidation(t *testing.T) {
	cases := []struct {
		name  string
		knobs map[string]stems.Value
		want  string
	}{
		{"unknown", map[string]stems.Value{"stems.rmob": stems.IntValue(1)}, "unknown knob"},
		{"kind", map[string]stems.Value{"stems.rmob_entries": stems.BoolValue(true)}, "wants an integer"},
		{"bounds", map[string]stems.Value{"stems.counter_threshold": stems.IntValue(9)}, "out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := stems.New(stems.WithKnobs(tc.knobs))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestWithKnobsMerge: repeated WithKnobs calls merge, later wins.
func TestWithKnobsMerge(t *testing.T) {
	r, err := stems.New(
		stems.WithKnobs(map[string]stems.Value{"stems.lookahead": stems.IntValue(2), "stems.svb_entries": stems.IntValue(32)}),
		stems.WithKnobs(map[string]stems.Value{"stems.lookahead": stems.IntValue(6)}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Options().STeMS.Lookahead; got != 6 {
		t.Errorf("lookahead = %d, want the later WithKnobs value 6", got)
	}
	if got := r.Options().STeMS.SVBEntries; got != 32 {
		t.Errorf("svb = %d, want 32 from the earlier map", got)
	}
}

// TestKnobsApplyAfterConfigure: knobs are the declarative form and win
// over closures, regardless of option order.
func TestKnobsApplyAfterConfigure(t *testing.T) {
	r, err := stems.New(
		stems.WithKnobs(map[string]stems.Value{"stems.rmob_entries": stems.IntValue(4096)}),
		stems.WithConfigure(func(o *stems.Options) { o.STeMS.RMOBEntries = 99 }),
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Options().STeMS.RMOBEntries; got != 4096 {
		t.Errorf("RMOBEntries = %d, want the knob value 4096", got)
	}
}

// TestSpecNotExpressible: a block-stream run has no Spec.
func TestSpecNotExpressible(t *testing.T) {
	r, err := stems.New(stems.WithBlockSourceFunc(stems.NewBlockTrace(nil).Blocks))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Spec(); err == nil {
		t.Error("expected an error for a block-stream Runner")
	}
}

// TestFromSpecUnknownSystem rejects bad system names before building.
func TestFromSpecUnknownSystem(t *testing.T) {
	if _, err := stems.FromSpec(stems.Spec{System: "huge"}); err == nil ||
		!strings.Contains(err.Error(), "unknown system") {
		t.Errorf("error = %v, want unknown system", err)
	}
}
