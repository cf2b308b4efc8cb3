// Tests of the public engine API: predictor registry semantics, Runner
// option defaulting, and the parallel sweep executor's determinism and
// cancellation behaviour.
package stems_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stems"
	"stems/internal/sim"
	"stems/internal/trace"
)

// ---- registry ----

func TestPredictorsContainBuiltins(t *testing.T) {
	got := stems.Predictors()
	want := []string{"none", "stride", "sms", "tms", "stems", "naive-hybrid", "epoch"}
	if len(got) < len(want) {
		t.Fatalf("Predictors() = %v, missing built-ins", got)
	}
	for i, name := range want {
		if got[i] != name {
			t.Fatalf("Predictors()[%d] = %q, want %q (full: %v)", i, got[i], name, got)
		}
	}
}

func TestRegisterPredictorErrors(t *testing.T) {
	nop := func(m *stems.Machine, opt stems.Options) error { return nil }
	if err := stems.RegisterPredictor("", nop); err == nil {
		t.Fatal("registering an empty name succeeded")
	}
	if err := stems.RegisterPredictor("t-nil", nil); err == nil {
		t.Fatal("registering a nil builder succeeded")
	}
	if err := stems.RegisterPredictor("stems", nop); err == nil {
		t.Fatal("shadowing the built-in stems predictor succeeded")
	}
	if err := stems.RegisterPredictor("t-custom", nop); err != nil {
		t.Fatalf("first registration failed: %v", err)
	}
	if err := stems.RegisterPredictor("t-custom", nop); err == nil {
		t.Fatal("duplicate registration succeeded")
	}
	found := false
	for _, name := range stems.Predictors() {
		if name == "t-custom" {
			found = true
		}
	}
	if !found {
		t.Fatalf("registered predictor missing from Predictors(): %v", stems.Predictors())
	}
}

func TestRegisteredPredictorRuns(t *testing.T) {
	// A predictor registered through the public API builds and runs by
	// name like the built-ins.
	err := stems.RegisterPredictor("t-noppf", func(m *stems.Machine, opt stems.Options) error {
		return nil // no engine, no prefetcher: behaves like "none"
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := stems.New(
		stems.WithPredictor("t-noppf"),
		stems.WithWorkload("DB2"),
		stems.WithAccesses(5_000),
		stems.WithSystem(stems.ScaledSystem()),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Accesses != 5_000 {
		t.Fatalf("accesses = %d, want 5000", res.Accesses)
	}
}

// ---- Runner options ----

func TestRunnerDefaultsMatchSimDefaults(t *testing.T) {
	r, err := stems.New()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.Options(), sim.DefaultOptions(); got != want {
		t.Fatalf("default options diverge from sim.DefaultOptions():\ngot  %+v\nwant %+v", got, want)
	}
	if r.Predictor() != "stems" {
		t.Fatalf("default predictor = %q, want stems", r.Predictor())
	}
	if r.Label() != "stems/DB2" {
		t.Fatalf("default label = %q", r.Label())
	}
}

func TestRunnerUnknownPredictor(t *testing.T) {
	_, err := stems.New(stems.WithPredictor("does-not-exist"))
	if err == nil {
		t.Fatal("unknown predictor accepted")
	}
	// The error derives the legal names from the registry.
	if !strings.Contains(err.Error(), "stride") || !strings.Contains(err.Error(), "naive-hybrid") {
		t.Fatalf("error does not list registered predictors: %v", err)
	}
}

func TestRunnerUnknownWorkload(t *testing.T) {
	if _, err := stems.New(stems.WithWorkload("nope")); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestRunnerConflictingSources(t *testing.T) {
	_, err := stems.New(
		stems.WithWorkload("DB2"),
		stems.WithBlockSourceFunc(stems.NewBlockTrace([]stems.Access{{Addr: 64}}).Blocks),
	)
	if err == nil {
		t.Fatal("conflicting sources accepted")
	}
}

func TestRunnerScientificDefaulting(t *testing.T) {
	sci, err := stems.New(stems.WithWorkload("em3d"))
	if err != nil {
		t.Fatal(err)
	}
	if !sci.Options().Scientific {
		t.Fatal("em3d did not default to the scientific lookahead")
	}
	com, err := stems.New(stems.WithWorkload("DB2"))
	if err != nil {
		t.Fatal(err)
	}
	if com.Options().Scientific {
		t.Fatal("DB2 defaulted to the scientific lookahead")
	}
	forced, err := stems.New(stems.WithWorkload("DB2"), stems.WithScientificLookahead())
	if err != nil {
		t.Fatal(err)
	}
	if !forced.Options().Scientific {
		t.Fatal("WithScientificLookahead ignored")
	}
	// Seeding the option block explicitly must not suppress the
	// workload-class defaulting.
	seeded, err := stems.New(stems.WithOptions(stems.DefaultOptions()), stems.WithWorkload("em3d"))
	if err != nil {
		t.Fatal(err)
	}
	if !seeded.Options().Scientific {
		t.Fatal("WithOptions suppressed the em3d scientific default")
	}
	// WithOptions voids an earlier WithScientificLookahead wholesale, so
	// the workload class decides again rather than a stale flag.
	clobbered, err := stems.New(
		stems.WithScientificLookahead(),
		stems.WithOptions(stems.DefaultOptions()),
		stems.WithWorkload("em3d"),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !clobbered.Options().Scientific {
		t.Fatal("stale scientificSet suppressed the em3d default after WithOptions")
	}
}

func TestEmptyBlockStreamReplaysNothing(t *testing.T) {
	// An empty block stream is an explicit source, not "fall back to DB2".
	r, err := stems.New(stems.WithBlockSourceFunc(stems.NewBlockTrace(nil).Blocks), stems.WithPredictor("none"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Accesses != 0 {
		t.Fatalf("empty block stream replayed %d accesses", res.Accesses)
	}
}

// accessWalk is a per-access Source over a slice — the shape of a custom
// workload generator, which the Runner takes batched by AsBlockSource.
type accessWalk struct{ accs []stems.Access }

func (w *accessWalk) Next(a *stems.Access) bool {
	if len(w.accs) == 0 {
		return false
	}
	*a, w.accs = w.accs[0], w.accs[1:]
	return true
}

// TestBlockSourceInputsMatchWorkload pins the one custom-input path: each
// way of handing the Runner a block stream — an in-memory BlockTrace, a
// per-access Source batched by AsBlockSource, and v1 and v2 trace files —
// replays exactly the run WithWorkload generates, and a WithAccesses cap
// (or, for a file, a read max) replays exactly the same prefix. Oracle is
// commercial, so the workload run's lookahead default is the block
// stream's.
func TestBlockSourceInputsMatchWorkload(t *testing.T) {
	const seed, n, short = 3, 3*trace.BlockCap + 77, trace.BlockCap + 100
	spec, err := stems.WorkloadByName("Oracle")
	if err != nil {
		t.Fatal(err)
	}
	accs := spec.Generate(seed, n)
	run := func(opts ...stems.Option) stems.Result {
		t.Helper()
		r, err := stems.New(append([]stems.Option{
			stems.WithPredictor("stems"), stems.WithSystem(stems.ScaledSystem()),
		}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(stems.WithWorkload("Oracle"), stems.WithSeed(seed), stems.WithAccesses(n))
	wantShort := run(stems.WithBlockSourceFunc(stems.NewBlockTrace(accs[:short]).Blocks))
	if want.Accesses != n || wantShort.Accesses != short {
		t.Fatalf("reference runs replayed %d and %d accesses, want %d and %d", want.Accesses, wantShort.Accesses, n, short)
	}

	dir := t.TempDir()
	writeFile := func(name string, data []byte) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var v2 bytes.Buffer
	w := stems.NewTraceWriter(&v2)
	if err := w.WriteAll(accs); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// NewTraceWriter writes v2 only; the v1 file is encoded here in the
	// fixed-width format of internal/trace/io.go: a 16-byte header, then
	// one 24-byte record per access.
	v1 := append([]byte("STEMSTRC"), 1, 0, 0, 0, 0, 0, 0, 0)
	for _, a := range accs {
		var flags byte
		if a.Write {
			flags |= 1
		}
		if a.Dep {
			flags |= 2
		}
		v1 = binary.LittleEndian.AppendUint64(v1, uint64(a.Addr))
		v1 = binary.LittleEndian.AppendUint64(v1, a.PC)
		v1 = binary.LittleEndian.AppendUint16(v1, a.Think)
		v1 = append(v1, flags, 0, 0, 0, 0, 0)
	}
	readFile := func(path string, max int) func() stems.BlockSource {
		t.Helper()
		bt, err := stems.ReadTraceFileBlocks(path, max)
		if err != nil {
			t.Fatal(err)
		}
		return bt.Blocks
	}
	files := []struct{ name, path string }{
		{"v1 file", writeFile("v1.trace", v1)},
		{"v2 file", writeFile("v2.trace", v2.Bytes())},
	}

	inputs := []struct {
		name string
		fn   func() stems.BlockSource
	}{
		{"block trace", stems.NewBlockTrace(accs).Blocks},
		{"per-access source", func() stems.BlockSource { return stems.AsBlockSource(&accessWalk{accs: accs}) }},
		{files[0].name, readFile(files[0].path, 0)},
		{files[1].name, readFile(files[1].path, 0)},
	}
	for _, in := range inputs {
		if got := run(stems.WithBlockSourceFunc(in.fn)); got != want {
			t.Errorf("%s: result differs from WithWorkload:\ngot  %+v\nwant %+v", in.name, got, want)
		}
		if got := run(stems.WithBlockSourceFunc(in.fn), stems.WithAccesses(short)); got != wantShort {
			t.Errorf("%s under WithAccesses(%d): result differs from the prefix run:\ngot  %+v\nwant %+v", in.name, short, got, wantShort)
		}
	}
	for _, f := range files {
		if got := run(stems.WithBlockSourceFunc(readFile(f.path, short))); got != wantShort {
			t.Errorf("%s read with max %d: result differs from the prefix run:\ngot  %+v\nwant %+v", f.name, short, got, wantShort)
		}
	}
}

func TestWithConfigureRunsAfterDefaulting(t *testing.T) {
	r, err := stems.New(
		stems.WithWorkload("em3d"),
		stems.WithConfigure(func(o *stems.Options) { o.Scientific = false }),
	)
	if err != nil {
		t.Fatal(err)
	}
	if r.Options().Scientific {
		t.Fatal("configure hook did not override the workload default")
	}
}

func TestRunnerRunMatchesDirectBuild(t *testing.T) {
	// The Runner must reproduce exactly what wiring the internals by hand
	// produces — the public API is a veneer, not a different simulator.
	const n = 20_000
	r, err := stems.New(
		stems.WithWorkload("Apache"),
		stems.WithPredictor("stems"),
		stems.WithSystem(stems.ScaledSystem()),
		stems.WithAccesses(n),
		stems.WithSeed(42),
	)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	spec, err := stems.WorkloadByName("Apache")
	if err != nil {
		t.Fatal(err)
	}
	opt := sim.DefaultOptions()
	opt.System = stems.ScaledSystem()
	opt.Scientific = spec.Scientific
	m, err := sim.Build(sim.KindSTeMS, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := m.RunBlocks(stems.NewBlockTrace(spec.Generate(42, n)).Blocks())
	if got != want {
		t.Fatalf("Runner result diverges from direct build:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestRunnerRejectsBadSeedAndAccesses(t *testing.T) {
	if _, err := stems.New(stems.WithSeed(-3)); err == nil || !strings.Contains(err.Error(), "invalid seed") {
		t.Errorf("negative seed: err = %v, want descriptive invalid-seed error", err)
	}
	// Seed 0 is the wire spec's "default" sentinel, so an explicit local
	// seed 0 is rejected too — otherwise a seed-0 Runner's Spec would
	// silently round-trip to seed 1.
	if _, err := stems.New(stems.WithSeed(0)); err == nil || !strings.Contains(err.Error(), "invalid seed") {
		t.Errorf("zero seed: err = %v, want descriptive invalid-seed error", err)
	}
	if _, err := stems.New(stems.WithAccesses(-1)); err == nil || !strings.Contains(err.Error(), "invalid access count") {
		t.Errorf("negative accesses: err = %v, want descriptive invalid-access-count error", err)
	}
	if _, err := stems.New(stems.WithPredictor("")); err == nil || !strings.Contains(err.Error(), "predictor") {
		t.Errorf("empty predictor: err = %v, want descriptive error", err)
	}
}

// TestWithRunProgress checks the per-block progress hook: monotone
// cumulative counts ending exactly at the replayed length.
func TestWithRunProgress(t *testing.T) {
	const n = 10_000
	var got []uint64
	r, err := stems.New(
		stems.WithWorkload("DB2"),
		stems.WithPredictor("none"),
		stems.WithAccesses(n),
		stems.WithRunProgress(func(done uint64) { got = append(got, done) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("progress callback never fired")
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("progress not increasing: %v", got)
		}
	}
	if last := got[len(got)-1]; last != n {
		t.Errorf("final progress = %d, want %d", last, n)
	}
}
