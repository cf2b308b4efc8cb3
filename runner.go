package stems

import (
	"context"
	"fmt"
	"sync"

	"stems/internal/sim"
	"stems/internal/trace"
	"stems/internal/workload"
)

// Runner is one fully configured simulation: a predictor, a system
// configuration, and an access stream. Build it with New, execute it with
// Run; a Runner is reusable (every Run constructs a fresh machine and a
// fresh cursor) and safe to execute concurrently with other Runners, which
// is what Sweep does.
type Runner struct {
	predictor string
	opt       Options
	label     string

	// The access stream: a suite workload (spec; DB2 unless WithWorkload
	// names another) or a caller's block stream (blockFn), never both.
	spec    Workload
	specSet bool
	blockFn func() BlockSource
	arena   *Arena

	seed      int64
	seedCount int
	accesses  int
	progress  func(accessesDone uint64)

	scientificSet bool
	configure     []func(*Options)
	knobs         map[string]Value

	errs []error
}

// Option configures a Runner.
type Option func(*Runner)

// WithWorkload selects a workload from the paper's suite by name (see
// WorkloadNames); a Runner without another source replays DB2. Scientific
// workloads automatically get the deeper §4.3 stream lookahead unless
// WithScientificLookahead overrides it.
func WithWorkload(name string) Option {
	return func(r *Runner) {
		spec, err := WorkloadByName(name)
		if err != nil {
			r.errs = append(r.errs, err)
			return
		}
		r.spec, r.specSet = spec, true
	}
}

// WithBlockSourceFunc replays a caller's block stream instead of a suite
// workload: a trace held in memory (NewBlockTrace(accs).Blocks), a trace
// file (ReadTraceFileBlocks), or a per-access Source batched by
// AsBlockSource. The function is invoked once per Run so repeated (and
// parallel) runs each get a fresh cursor.
func WithBlockSourceFunc(fn func() BlockSource) Option {
	return func(r *Runner) { r.blockFn = fn }
}

// WithSharedTrace routes this Runner's workload generation through a trace
// arena: the first Run of any (workload, seed, length) combination
// generates the trace, every other Runner sharing the arena replays the
// same read-only slice. Hand one arena to every Runner of a Sweep grid and
// an N-point sweep generates its trace once instead of N times.
//
// The arena only applies to workload sources; a block stream is already
// the caller's to share.
func WithSharedTrace(a *Arena) Option {
	return func(r *Runner) { r.arena = a }
}

// WithPredictor selects the predictor by registered name (see Predictors
// and RegisterPredictor). The default is "stems".
func WithPredictor(name string) Option {
	return func(r *Runner) { r.predictor = name }
}

// WithSystem replaces the simulated node configuration. The default is
// the paper's Table 1 system; the command-line tools pass ScaledSystem.
func WithSystem(sys System) Option {
	return func(r *Runner) { r.opt.System = sys }
}

// WithOptions replaces the whole simulator option block (predictor
// sizings, system, flags) in one call, voiding earlier option edits —
// including an earlier WithScientificLookahead. Later options still apply
// on top, and the workload-class Scientific defaulting still runs — pin
// the flag with WithScientificLookahead or WithConfigure if the workload
// must not decide it.
func WithOptions(opt Options) Option {
	return func(r *Runner) {
		r.opt = opt
		r.scientificSet = false
	}
}

// WithConfigure edits the effective simulator options in place — the
// escape hatch for sweeping individual predictor parameters:
//
//	stems.WithConfigure(func(o *stems.Options) { o.STeMS.RMOBEntries = 64 << 10 })
//
// Configure functions run last, after every other option and after
// workload-based defaulting (e.g. the scientific lookahead), so what they
// set is what the build sees.
func WithConfigure(fn func(*Options)) Option {
	return func(r *Runner) { r.configure = append(r.configure, fn) }
}

// WithKnobs overlays typed knob overrides — the declarative, serializable
// counterpart of WithConfigure. Keys are registered knob names (see
// Knobs and KnobsFor; "stemsim -predictors -v" prints the full table),
// values are typed Values:
//
//	stems.WithKnobs(map[string]stems.Value{
//		"stems.rmob_entries": stems.IntValue(64 << 10),
//		"scientific":         stems.BoolValue(false),
//	})
//
// Knobs apply last — after every other option, workload-class
// defaulting, and WithConfigure closures — so a knob map fully pins what
// it names. Repeated WithKnobs calls merge, later values winning per
// key. New validates every name, kind, and bound and reports the
// offending knob. Unlike a closure, a knob map crosses the wire: it is
// the Spec currency cmd/sweep -set, the stemsd RunSpec, and
// Runner.Spec round-trips share.
func WithKnobs(knobs map[string]Value) Option {
	return func(r *Runner) {
		if len(knobs) == 0 {
			return
		}
		if r.knobs == nil {
			r.knobs = make(map[string]Value, len(knobs))
		}
		for name, v := range knobs {
			r.knobs[name] = v
		}
	}
}

// WithSeed sets the workload generator seed (default 1). Explicit seeds
// are positive — New rejects zero and negative values so the CLI, the
// public API, and the stemsd service agree on one validated seed space
// (on the wire, a zero Seed field means "the default, 1", so a seed-0
// run would not survive a Spec round trip; a typo'd sign fails loudly
// instead of silently naming a different trace).
func WithSeed(seed int64) Option {
	return func(r *Runner) { r.seed = seed }
}

// SeedStride is the spacing of the derived seed progression WithSeeds
// configures: seed s of a K-seed set is base + s*SeedStride. The figure
// harness uses the same progression for Figure 10's confidence-interval
// seeds, so a WithSeeds(1, k) run replays exactly the traces the paper
// figures aggregate.
const SeedStride = workload.SeedStride

// WithSeeds configures a K-seed set for RunSeeds: the seeds
// base, base+SeedStride, ..., base+(k-1)*SeedStride — Figure 10's
// confidence-interval progression. Run still replays only the base seed;
// RunSeeds replays all K. Like WithSeed, base must be positive; k must be
// at least 1. Seed sets name workload traces, so RunSeeds with k > 1
// requires a workload source.
func WithSeeds(base int64, k int) Option {
	return func(r *Runner) {
		if k < 1 {
			r.errs = append(r.errs, fmt.Errorf("stems: invalid seed count %d: need at least 1", k))
			return
		}
		r.seed = base
		r.seedCount = k
	}
}

// WithAccesses caps the trace length. Zero keeps the workload's default
// length (for a workload source) or the whole stream (for a block stream).
func WithAccesses(n int) Option {
	return func(r *Runner) { r.accesses = n }
}

// WithRunProgress installs a per-run progress callback: fn receives the
// cumulative number of accesses replayed so far, invoked once per columnar
// block (i.e. every few thousand accesses) from the replaying goroutine.
// The stemsd service streams these updates to clients; a nil fn disables
// reporting. Keep fn cheap — it sits on the replay path.
func WithRunProgress(fn func(accessesDone uint64)) Option {
	return func(r *Runner) { r.progress = fn }
}

// WithScientificLookahead forces the deeper stream lookahead of §4.3
// regardless of workload class.
func WithScientificLookahead() Option {
	return func(r *Runner) {
		r.opt.Scientific = true
		r.scientificSet = true
	}
}

// WithAdaptiveLookahead enables the streaming engine's dynamic lookahead
// extension for the stream-based predictors.
func WithAdaptiveLookahead() Option {
	return func(r *Runner) { r.opt.AdaptiveLookahead = true }
}

// WithVirtualizedMetadata routes STeMS metadata through an on-chip cache
// of the given size (§6 predictor virtualization), charging misses to
// memory bandwidth. A size of 0 selects the reference 64KB.
func WithVirtualizedMetadata(bytes int) Option {
	return func(r *Runner) {
		r.opt.VirtualizedMeta = true
		r.opt.VirtualMetaCacheBytes = bytes
	}
}

// WithLabel names the run in progress reports and Label (defaults to
// "predictor/source").
func WithLabel(label string) Option {
	return func(r *Runner) { r.label = label }
}

// New builds a Runner from functional options over the paper's defaults:
// predictor "stems", the DB2 OLTP workload at its default trace length,
// seed 1, and DefaultOptions. It validates the predictor name against the
// registry and that at most one access-stream source was chosen.
func New(opts ...Option) (*Runner, error) {
	r := &Runner{
		predictor: string(sim.KindSTeMS),
		opt:       sim.DefaultOptions(),
		seed:      1,
	}
	for _, o := range opts {
		o(r)
	}
	if len(r.errs) > 0 {
		return nil, r.errs[0]
	}
	if r.seed <= 0 {
		return nil, fmt.Errorf("stems: invalid seed %d: workload seeds are positive (a wire Spec's 0 selects the default, 1)", r.seed)
	}
	if r.accesses < 0 {
		return nil, fmt.Errorf("stems: invalid access count %d: must be positive, or 0 for the source's default length", r.accesses)
	}
	if r.predictor == "" {
		return nil, fmt.Errorf("stems: empty predictor name (registered: %v)", Predictors())
	}

	if r.specSet && r.blockFn != nil {
		return nil, fmt.Errorf("stems: conflicting access-stream sources: choose one of WithWorkload, WithBlockSourceFunc")
	}
	if !r.specSet && r.blockFn == nil {
		spec, err := WorkloadByName("DB2")
		if err != nil {
			return nil, err
		}
		r.spec, r.specSet = spec, true
	}

	if !sim.IsRegistered(sim.Kind(r.predictor)) {
		return nil, fmt.Errorf("stems: unknown predictor %q (registered: %v)", r.predictor, Predictors())
	}
	if r.specSet && !r.scientificSet {
		r.opt.Scientific = r.spec.Scientific
	}
	for _, fn := range r.configure {
		fn(&r.opt)
	}
	if len(r.knobs) > 0 {
		canon, err := sim.NormalizeKnobs(r.knobs)
		if err != nil {
			return nil, fmt.Errorf("stems: %w", err)
		}
		r.knobs = canon
		if err := sim.ApplyKnobs(&r.opt, canon); err != nil {
			return nil, fmt.Errorf("stems: %w", err)
		}
	}
	return r, nil
}

// FromSpec builds a Runner from a declarative Spec — the inverse of
// Runner.Spec and the exact constructor the stemsd service uses, so a
// spec executed locally and a spec submitted over the wire configure
// identical runs. Zero spec fields select the wire defaults: predictor
// "stems", workload "DB2", seed 1, the workload's default trace length,
// and the *scaled* system (note: plain New defaults to the paper
// system; a Spec follows the service contract instead). Extra options
// apply after the spec's own (the service appends WithSharedTrace and
// WithRunProgress this way).
func FromSpec(spec Spec, extra ...Option) (*Runner, error) {
	opts, err := specOptions(spec)
	if err != nil {
		return nil, err
	}
	return New(append(opts, extra...)...)
}

// specOptions lowers a Spec to the functional options that express it.
func specOptions(spec Spec) ([]Option, error) {
	opts := make([]Option, 0, 8)
	if spec.Predictor != "" {
		opts = append(opts, WithPredictor(spec.Predictor))
	}
	if spec.Workload != "" {
		opts = append(opts, WithWorkload(spec.Workload))
	}
	if spec.Seed != 0 {
		opts = append(opts, WithSeed(spec.Seed))
	}
	if spec.Accesses != 0 {
		opts = append(opts, WithAccesses(spec.Accesses))
	}
	switch spec.System {
	case "", "scaled":
		opts = append(opts, WithSystem(ScaledSystem()))
	case "paper":
		opts = append(opts, WithSystem(PaperSystem()))
	default:
		return nil, fmt.Errorf("stems: unknown system %q (choose \"scaled\" or \"paper\")", spec.System)
	}
	if spec.Label != "" {
		opts = append(opts, WithLabel(spec.Label))
	}
	if len(spec.Knobs) > 0 {
		opts = append(opts, WithKnobs(spec.Knobs))
	}
	return opts, nil
}

// Spec returns the canonical declarative form of this Runner: the Spec
// that FromSpec maps back to an identically configured run (same
// effective Options, so the same result bytes and the same service
// cache key). Every option-expressible configuration has one — the
// effective options are diffed against the spec's baseline knob by
// knob, and the registry covers every Options field, so even
// WithConfigure edits serialize. Only runs replaying a suite workload
// are spec-expressible; a block-stream run returns an error (its access
// stream is not wire-resolvable).
func (r *Runner) Spec() (Spec, error) {
	if !r.specSet {
		return Spec{}, fmt.Errorf("stems: only workload runs are spec-expressible (this Runner replays a caller's block stream)")
	}
	spec := Spec{
		Predictor: r.predictor,
		Workload:  r.spec.Name,
		Seed:      r.seed,
		Accesses:  r.accesses,
		Label:     r.label,
	}
	// Reconstruct the baseline FromSpec would start from: wire defaults
	// plus a named system, then workload-class lookahead defaulting.
	// Either named system plus system.* knob diffs can express any
	// configuration; the canonical spec is the one with fewer knobs
	// (scaled winning ties — it is the wire default).
	scaled := sim.DefaultOptions()
	scaled.System = ScaledSystem()
	scaled.Scientific = r.spec.Scientific
	paper := sim.DefaultOptions()
	paper.Scientific = r.spec.Scientific
	scaledDiff := sim.KnobDiff(scaled, r.opt)
	paperDiff := sim.KnobDiff(paper, r.opt)
	if len(scaledDiff) <= len(paperDiff) {
		spec.System, spec.Knobs = "scaled", scaledDiff
	} else {
		spec.System, spec.Knobs = "paper", paperDiff
	}
	return spec, nil
}

// Predictor returns the registered predictor name this Runner builds.
func (r *Runner) Predictor() string { return r.predictor }

// Options returns the effective simulator options (defaults plus applied
// functional options).
func (r *Runner) Options() Options { return r.opt }

// Label identifies the run in progress reports.
func (r *Runner) Label() string {
	if r.label != "" {
		return r.label
	}
	if r.specSet {
		return r.predictor + "/" + r.spec.Name
	}
	return r.predictor + "/custom"
}

// source opens the configured access stream for one run. A workload trace
// comes from the shared arena when there is one and is generated in
// columnar form otherwise; a caller's block stream is capped at the
// configured length.
func (r *Runner) source() (BlockSource, error) {
	if r.specSet {
		n := r.spec.DefaultAccesses
		if r.accesses > 0 {
			n = r.accesses
		}
		if r.arena != nil {
			bt := r.arena.Get(r.spec.Name, r.seed, n, func() []Access {
				return r.spec.Generate(r.seed, n)
			})
			return bt.Blocks(), nil
		}
		return r.spec.GenerateBlocks(r.seed, n).Blocks(), nil
	}
	bs := r.blockFn()
	if bs == nil {
		return nil, fmt.Errorf("stems: WithBlockSourceFunc returned a nil BlockSource")
	}
	if r.accesses > 0 {
		return trace.LimitBlocks(bs, r.accesses), nil
	}
	return bs, nil
}

// Run builds a fresh machine, replays the configured access stream through
// the batched block kernel, and returns the result. The context cancels a
// run in flight (checked once per block, i.e. every few thousand
// accesses).
func (r *Runner) Run(ctx context.Context) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	bs, err := r.source()
	if err != nil {
		return Result{}, err
	}
	m, err := sim.Build(sim.Kind(r.predictor), r.opt)
	if err != nil {
		return Result{}, err
	}
	done := ctx.Done()
	var replayed uint64
	var b trace.Block
	for bs.NextBlock(&b) {
		m.StepBlock(&b)
		if r.progress != nil {
			replayed += uint64(b.N)
			r.progress(replayed)
		}
		select {
		case <-done:
			return Result{}, ctx.Err()
		default:
		}
	}
	return m.Finish(), nil
}

// Seeds returns the seed set RunSeeds will replay: the WithSeeds
// progression when one was configured, else just the single configured
// seed.
func (r *Runner) Seeds() []int64 {
	k := r.seedCount
	if k < 1 {
		k = 1
	}
	out := make([]int64, k)
	for s := range out {
		out[s] = r.seed + int64(s)*SeedStride
	}
	return out
}

// RunSeeds replays one run per seed — K copies of this Runner's
// configuration, each an ordinary Run over its seed's trace, executed as
// a Sweep — and returns one result per seed in seed order. An explicit
// seed list overrides the configured WithSeeds progression; with
// neither, RunSeeds degenerates to one run of the configured seed.
//
// Results are byte-identical to calling Run once per seed sequentially;
// on multi-core hosts the seeds replay in parallel (GOMAXPROCS wide).
//
// A configured WithRunProgress callback receives the cumulative number of
// accesses replayed across the whole set; invocations are serialized and
// monotonic even when seeds run in parallel.
func (r *Runner) RunSeeds(ctx context.Context, seeds ...int64) ([]Result, error) {
	list := seeds
	if len(list) == 0 {
		list = r.Seeds()
	}
	for _, s := range list {
		if s <= 0 {
			return nil, fmt.Errorf("stems: invalid seed %d in seed set: workload seeds are positive", s)
		}
	}
	if len(list) > 1 && !r.specSet {
		return nil, fmt.Errorf("stems: multi-seed sets need a workload source (seeds name generated traces; this Runner replays a caller's block stream)")
	}
	// Each copy reports its own cumulative count; fold them into one
	// serialized set total.
	var mu sync.Mutex
	var total uint64
	grid := make([]*Runner, len(list))
	for i, seed := range list {
		c := *r
		c.seed = seed
		if fn := r.progress; fn != nil {
			var prev uint64
			c.progress = func(done uint64) {
				mu.Lock()
				total += done - prev
				prev = done
				fn(total)
				mu.Unlock()
			}
		}
		grid[i] = &c
	}
	return Sweep(ctx, grid)
}
