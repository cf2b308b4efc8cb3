// Package stems is the public engine API of the STeMS reproduction
// (Somogyi, Wenisch, Ailamaki, Falsafi: "Spatio-Temporal Memory
// Streaming", ISCA 2009): a trace-driven memory-hierarchy simulator with
// the paper's predictor suite, a registry for third-party predictors, a
// functional-options Runner for single simulations, and a parallel Sweep
// executor for grids of runs.
//
// A minimal run:
//
//	r, err := stems.New(
//		stems.WithWorkload("DB2"),
//		stems.WithPredictor("stems"),
//	)
//	if err != nil { ... }
//	res, err := r.Run(context.Background())
//	fmt.Printf("coverage %.1f%%\n", 100*res.Coverage())
//
// Custom predictors register once and then build by name like the
// built-ins:
//
//	stems.RegisterPredictor("next-line", func(m *stems.Machine, opt stems.Options) error {
//		eng := m.AttachEngine(stream.Config{SVBEntries: 64})
//		m.SetPrefetcher(&nextLine{engine: eng})
//		return nil
//	})
//
// See README.md for the architecture map of the internal packages.
package stems

import (
	"fmt"
	"io"
	"os"

	"stems/internal/config"
	"stems/internal/enc"
	"stems/internal/mem"
	"stems/internal/sim"
	"stems/internal/stream"
	"stems/internal/trace"
	"stems/internal/workload"

	// Link the seven built-in predictors into every user of the public
	// API; each self-registers with the sim registry.
	_ "stems/internal/predictors"
)

// Aliases re-export the engine's core types so the public API is usable
// without importing internal packages.
type (
	// Access is one replayed memory reference.
	Access = trace.Access
	// Source yields an access stream one access at a time; a Runner
	// replays one batched by AsBlockSource.
	Source = trace.Source
	// Block is a columnar batch of up to trace.BlockCap accesses — the
	// native currency of the replay pipeline.
	Block = trace.Block
	// BlockSource yields an access stream in columnar blocks; see
	// WithBlockSourceFunc and AsBlockSource.
	BlockSource = trace.BlockSource
	// BlockTrace is a complete trace in compact columnar form (~2x
	// smaller resident than []Access); it is what an Arena caches.
	BlockTrace = trace.BlockTrace
	// Machine is one simulated node: caches, memory channels, streamed
	// value buffer, prefetcher.
	Machine = sim.Machine
	// Prefetcher is the interface custom predictors implement.
	Prefetcher = sim.Prefetcher
	// Builder wires a predictor into a fresh Machine; see
	// RegisterPredictor.
	Builder = sim.Builder
	// Options collects the per-component simulator configurations.
	Options = sim.Options
	// Result summarizes one simulation run.
	Result = sim.Result
	// System is the simulated node configuration (Table 1).
	System = config.System
	// Workload describes one synthetic workload of the paper's suite.
	Workload = workload.Spec
	// TraceWriter/TraceReader stream the binary trace format of
	// cmd/tracegen.
	TraceWriter = trace.Writer
	TraceReader = trace.Reader
	// Addr is a byte address in the simulated physical address space.
	Addr = mem.Addr
	// Arena is a concurrency-safe cache of generated workload traces;
	// see NewArena and WithSharedTrace.
	Arena = trace.Arena
	// ArenaStats summarizes an Arena's generation/hit activity.
	ArenaStats = trace.ArenaStats
	// StreamEngine is the streamed value buffer and fetch engine a
	// predictor issues prefetches through (see Machine.AttachEngine).
	StreamEngine = stream.Engine
	// StreamConfig sizes a StreamEngine.
	StreamConfig = stream.Config
	// Spec is the declarative, serializable form of one run: predictor,
	// workload, seed, accesses, system, label, and typed knob
	// overrides. It is the single configuration currency shared by
	// FromSpec/Runner.Spec, the stemsd wire RunSpec, and the CLI -set
	// flags; every option-expressible run has a canonical Spec.
	Spec = enc.RunSpec
	// Value is one typed knob value (integer, boolean, or float); see
	// IntValue, BoolValue, FloatValue, and ParseValue.
	Value = sim.Value
	// Knob is one introspectable configuration parameter: name, kind,
	// bounds, doc, and its binding to an Options field.
	Knob = sim.Knob
	// KnobKind is a knob's value type.
	KnobKind = sim.KnobKind
)

// The knob value kinds.
const (
	KnobInt   = sim.KnobInt
	KnobBool  = sim.KnobBool
	KnobFloat = sim.KnobFloat
)

// IntValue makes an integer knob Value.
func IntValue(v int64) Value { return sim.IntValue(v) }

// BoolValue makes a boolean knob Value.
func BoolValue(v bool) Value { return sim.BoolValue(v) }

// FloatValue makes a float knob Value.
func FloatValue(v float64) Value { return sim.FloatValue(v) }

// ParseValue reads a knob value from text ("8192", "true", "4.5"). Kind
// coercion against the named knob happens at validation, so integer
// text is accepted for a float knob.
func ParseValue(s string) (Value, error) { return sim.ParseValue(s) }

// ParseKnobAssignment reads a "name=value" knob assignment — the shared
// parser behind the CLIs' repeatable -set flags.
func ParseKnobAssignment(s string) (name string, v Value, err error) {
	return sim.ParseAssignment(s)
}

// Knobs lists the knobs relevant to one registered predictor: the
// shared system/run tables plus the predictor's own. Any registered
// knob may be set on any run; this is the schema /v1/predictors reports
// and "stemsim -predictors -v" prints.
func Knobs(predictor string) []Knob { return sim.KnobsFor(sim.Kind(predictor)) }

// AllKnobs lists every registered knob across all groups.
func AllKnobs() []Knob { return sim.AllKnobs() }

// KnobByName finds a registered knob by its wire name.
func KnobByName(name string) (Knob, bool) { return sim.LookupKnob(name) }

// RegisterKnobs adds a named group of knobs to the registry (the hook
// for out-of-tree predictors that reuse Options fields); BindKnobs
// attaches groups to a registered predictor's schema.
func RegisterKnobs(group string, knobs ...Knob) error { return sim.RegisterKnobs(group, knobs...) }

// BindKnobs declares which knob groups a predictor's schema includes,
// beyond the implicit "system" and "run" groups.
func BindKnobs(predictor string, groups ...string) { sim.BindKnobs(sim.Kind(predictor), groups...) }

// Address-space geometry re-exports for predictor and workload authors.
const (
	// BlockSize is the cache block (line) size in bytes.
	BlockSize = mem.BlockSize
	// RegionSize is the spatial region size in bytes.
	RegionSize = mem.RegionSize
)

// DefaultOptions returns the paper's configuration (Table 1 system, §4.3
// predictor sizing). Runner options start from these defaults.
func DefaultOptions() Options { return sim.DefaultOptions() }

// PaperSystem is the full Table 1 node (8MB L2).
func PaperSystem() System { return config.DefaultSystem() }

// ScaledSystem is the reduced-footprint experiment node used by the
// command-line tools (1MB L2, scaled to the synthetic trace lengths).
func ScaledSystem() System { return config.ScaledSystem() }

// RegisterPredictor adds a predictor under name, making it buildable via
// WithPredictor(name) exactly like the built-in kinds. It fails on an
// empty name, a nil builder, or a name already taken (including the seven
// built-ins).
func RegisterPredictor(name string, b Builder) error {
	return sim.Register(sim.Kind(name), b)
}

// Predictors lists every registered predictor name: the built-in kinds in
// the paper's reporting order (baselines first), then custom registrations
// sorted by name.
func Predictors() []string {
	kinds := sim.AllKinds()
	out := make([]string, len(kinds))
	for i, k := range kinds {
		out[i] = string(k)
	}
	return out
}

// Workloads returns the paper's ten-workload suite in figure order.
func Workloads() []Workload { return workload.Suite() }

// WorkloadNames lists the suite's workload names in order.
func WorkloadNames() []string { return workload.Names() }

// WorkloadByName finds a suite workload by its paper label (e.g. "DB2",
// "em3d"); the error lists the available names.
func WorkloadByName(name string) (Workload, error) {
	spec, err := workload.ByName(name)
	if err != nil {
		return Workload{}, fmt.Errorf("%w (available: %v)", err, workload.Names())
	}
	return spec, nil
}

// NewTraceWriter wraps w with the binary trace encoder. It writes the
// columnar v2 format (varint delta-coded addresses, per-frame PC
// dictionaries — see trace/io.go for the frame layout), 4.1-5.1x smaller
// than the fixed-width v1 records on the synthetic suite; nothing writes
// v1 any more, but NewTraceReader still reads it.
func NewTraceWriter(w io.Writer) *TraceWriter { return trace.NewWriter(w) }

// NewTraceReader wraps r with the binary trace decoder; both format
// versions are detected from the header. The reader is a BlockSource.
func NewTraceReader(r io.Reader) *TraceReader { return trace.NewReader(r) }

// NewBlockTrace compacts an access slice into a columnar BlockTrace. The
// slice is only read.
func NewBlockTrace(accs []Access) *BlockTrace { return trace.NewBlockTrace(accs) }

// AsBlockSource adapts a per-access Source to a BlockSource, batching it
// into columnar blocks. A Source that also produces blocks itself is
// returned unwrapped.
func AsBlockSource(src Source) BlockSource { return trace.Blocks(src) }

// NewArena creates a shared trace cache for use with WithSharedTrace:
// every Runner (or Sweep grid) handed the same arena generates each
// (workload, seed, length) trace exactly once and replays a shared
// read-only slice thereafter.
func NewArena() *Arena { return trace.NewArena() }

// ReadTraceFileBlocks loads up to max accesses (0 = all) from a binary
// trace file (either format version) written by NewTraceWriter /
// cmd/tracegen directly into a columnar BlockTrace — the compact resident
// form the Runner replays through WithBlockSourceFunc. A v2 file decodes
// frame-by-frame into blocks with no intermediate []Access.
func ReadTraceFileBlocks(path string, max int) (*BlockTrace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := trace.NewReader(f)
	var bs BlockSource = r
	if max > 0 {
		bs = trace.LimitBlocks(r, max)
	}
	// Consume frame-at-a-time: on a v2 trace each decoded frame (the last
	// one truncated at max) lands as one column copy, no per-access
	// repacking.
	bt := &trace.BlockTrace{}
	var b Block
	for bs.NextBlock(&b) {
		bt.AppendBlock(&b)
	}
	bt.Seal()
	if r.Err() != nil {
		return nil, fmt.Errorf("reading trace %s: %w", path, r.Err())
	}
	return bt, nil
}
