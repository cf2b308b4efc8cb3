// Package sim is the trace-driven memory-hierarchy simulator: it replays an
// access stream through L1/L2 caches, a streamed value buffer, and a
// prefetcher, producing the coverage/overprediction accounting of Figure 9
// and the timing model behind Figure 10.
//
// The paper evaluates with FLEXUS cycle-accurate full-system simulation;
// this engine is the substitution documented in DESIGN.md. Predictors see
// exactly the signals they see in the paper — the L1 access stream, L1
// evictions, and off-chip read events — and the timing model captures the
// first-order effects the paper's speedups rest on: dependent-miss
// serialization, OoO overlap of independent misses, prefetch timeliness,
// and bandwidth contention.
package sim

import (
	"fmt"
	"math/bits"

	"stems/internal/cache"
	"stems/internal/config"
	"stems/internal/mem"
	"stems/internal/stream"
	"stems/internal/trace"
)

// Prefetcher is the interface every predictor implements. All methods are
// invoked synchronously from the replay loop.
type Prefetcher interface {
	// Name identifies the predictor in reports.
	Name() string
	// OnAccess observes every L1 access, with its hit/miss outcome.
	OnAccess(a trace.Access, l1Hit bool)
	// OnL1Evict observes L1 victim blocks (spatial generation endings).
	OnL1Evict(block mem.Addr)
	// OnOffChipEvent observes every demand read that missed both caches;
	// covered reports whether the streamed value buffer supplied it.
	OnOffChipEvent(a trace.Access, covered bool)
}

// Nop is the no-prefetching baseline.
type Nop struct{}

// Name implements Prefetcher.
func (Nop) Name() string { return "none" }

// OnAccess implements Prefetcher.
func (Nop) OnAccess(trace.Access, bool) {}

// OnL1Evict implements Prefetcher.
func (Nop) OnL1Evict(mem.Addr) {}

// OnOffChipEvent implements Prefetcher.
func (Nop) OnOffChipEvent(trace.Access, bool) {}

// Result summarizes one simulation run.
type Result struct {
	Prefetcher string

	Accesses uint64
	Reads    uint64
	Writes   uint64
	L1Hits   uint64
	L2Hits   uint64

	// OffChipReads counts uncovered demand read misses (paid full or
	// MLP-divided latency).
	OffChipReads uint64
	// Covered counts demand reads satisfied by the SVB — the paper's
	// "covered" misses ("predicted correctly and still reside in the SVB
	// at the time of the processor request", §5.5).
	Covered uint64
	// Overpredicted counts prefetched blocks never consumed (§5.5:
	// "erroneously fetched blocks ... normalized against the number of
	// off-chip read misses in the baseline system").
	Overpredicted uint64
	Fetched       uint64
	// MetaTransfers counts metadata-block fetches when predictor
	// virtualization is enabled.
	MetaTransfers uint64

	// Reconstruction placement outcomes (§4.2), contributed by predictors
	// that reconstruct a total miss order (STeMS). Zero for the others.
	ReconPlacedExact uint64
	ReconPlacedNear  uint64
	ReconDropped     uint64

	Cycles uint64
}

// ReconDropFraction returns the share of reconstructed addresses that
// found no slot (§4.3 reports ±2-slot search places 99%).
func (r Result) ReconDropFraction() float64 {
	if total := r.ReconPlacedExact + r.ReconPlacedNear + r.ReconDropped; total > 0 {
		return float64(r.ReconDropped) / float64(total)
	}
	return 0
}

// ResultContributor is an optional Prefetcher extension: predictors that
// keep counters of their own publish them into the Result at Finish time.
type ResultContributor interface {
	ContributeResult(*Result)
}

// BaselineMisses returns the off-chip read misses the baseline system would
// take: every covered miss would have gone off chip without the prefetcher.
func (r Result) BaselineMisses() uint64 { return r.Covered + r.OffChipReads }

// Coverage returns covered / baseline misses.
func (r Result) Coverage() float64 {
	if b := r.BaselineMisses(); b > 0 {
		return float64(r.Covered) / float64(b)
	}
	return 0
}

// OverpredictionRate returns overpredictions / baseline misses.
func (r Result) OverpredictionRate() float64 {
	if b := r.BaselineMisses(); b > 0 {
		return float64(r.Overpredicted) / float64(b)
	}
	return 0
}

// String renders a one-line summary.
func (r Result) String() string {
	return fmt.Sprintf("%s: accesses=%d misses=%d covered=%.1f%% overpred=%.1f%% cycles=%d",
		r.Prefetcher, r.Accesses, r.BaselineMisses(),
		100*r.Coverage(), 100*r.OverpredictionRate(), r.Cycles)
}

// Machine is one simulated node: caches, memory channels, SVB, prefetcher.
type Machine struct {
	cfg    config.System
	l1, l2 *cache.Cache
	engine *stream.Engine // nil when running without a prefetch buffer
	pf     Prefetcher

	cycle    uint64
	channels []uint64 // per-channel next-free cycle

	res Result
}

// NewMachine builds a node around the given prefetcher. For the
// no-prefetch baseline pass pf == Nop{} and no engine is created.
func NewMachine(cfg config.System, pf Prefetcher) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Machine{
		cfg:      cfg,
		l1:       cache.New(cache.Config{SizeBytes: cfg.L1SizeBytes, Ways: cfg.L1Ways}),
		l2:       cache.New(cache.Config{SizeBytes: cfg.L2SizeBytes, Ways: cfg.L2Ways}),
		pf:       pf,
		channels: make([]uint64, cfg.MemChannels),
	}
	m.l1.OnEvict = func(b mem.Addr) { m.pf.OnL1Evict(b) }
	m.res.Prefetcher = pf.Name()
	return m
}

// AttachEngine wires a streaming engine into the machine: the machine
// provides the clock, the duplicate-fetch filter, and the bandwidth model.
// Prefetchers must be constructed against the returned engine.
func (m *Machine) AttachEngine(cfg stream.Config) *stream.Engine {
	m.engine = stream.NewEngine(cfg, fetcherFunc(m.prefetchTransfer))
	m.engine.Clock = func() uint64 { return m.cycle }
	m.engine.ShouldFetch = func(b mem.Addr) bool {
		return !m.l1.Contains(b) && !m.l2.Contains(b)
	}
	return m.engine
}

// SetPrefetcher replaces the prefetcher (used because the prefetcher needs
// the engine, which needs the machine).
func (m *Machine) SetPrefetcher(pf Prefetcher) {
	m.pf = pf
	m.res.Prefetcher = pf.Name()
}

// fetcherFunc adapts a function to stream.Fetcher.
type fetcherFunc func(block mem.Addr) uint64

func (f fetcherFunc) Fetch(block mem.Addr) uint64 { return f(block) }

// issueTransfer allocates the earliest-available memory channel. It returns
// the cycle the transfer starts (after any queuing) and completes.
func (m *Machine) issueTransfer() (start, completion uint64) {
	best := 0
	for i, free := range m.channels {
		if free < m.channels[best] {
			best = i
		}
	}
	start = m.cycle
	if m.channels[best] > start {
		start = m.channels[best]
	}
	m.channels[best] = start + m.cfg.ChannelOccupancy
	return start, start + m.cfg.OffChipCycles
}

// prefetchTransfer is the stream engine's fetch path: it consumes channel
// bandwidth and reports when the block lands in the SVB.
func (m *Machine) prefetchTransfer(mem.Addr) uint64 {
	_, completion := m.issueTransfer()
	m.res.Fetched++
	return completion
}

// ChargeTransfer consumes one memory-channel slot without moving data into
// the SVB — the path used for virtualized predictor metadata traffic (§6).
func (m *Machine) ChargeTransfer() {
	m.issueTransfer()
	m.res.MetaTransfers++
}

// stepMiss is StepBlock's L1-miss slow path: SVB probe, L2, off-chip
// transfer, and the timing model.
func (m *Machine) stepMiss(a trace.Access) {
	// Stores invalidate any prefetched copy: the SVB must never serve data
	// that a store has made stale.
	if a.Write && m.engine != nil {
		m.engine.Invalidate(a.Addr)
	}
	// Probe the SVB (reads only; stores drain through the write path).
	if !a.Write && m.engine != nil {
		if hit, readyAt := m.engine.Lookup(a.Addr); hit {
			m.res.Covered++
			m.l2.Fill(a.Addr)
			m.l1.Fill(a.Addr)
			m.cycle += m.cfg.SVBHitCycles
			if readyAt > m.cycle {
				m.cycle = readyAt // in flight: wait for arrival
			}
			m.pf.OnOffChipEvent(a, true)
			return
		}
	}

	if m.l2.Access(a.Addr) {
		m.res.L2Hits++
		m.l1.Fill(a.Addr)
		if !a.Write {
			m.cycle += m.cfg.L2HitCycles
		}
		return
	}

	// Off-chip.
	m.l2.Fill(a.Addr)
	m.l1.Fill(a.Addr)
	if a.Write {
		// Store-wait-free (§5.1): stores never stall the core, and their
		// bandwidth drains in the background.
		return
	}
	m.res.OffChipReads++
	// The demand transfer reserves its channel first (demand priority),
	// then the prefetcher reacts *at miss-issue time* — streams launched
	// by this miss overlap with its latency, which is where streaming's
	// lookahead comes from.
	start, completion := m.issueTransfer()
	m.pf.OnOffChipEvent(a, false)
	if a.Dep {
		// A dependent miss (pointer chase) serializes: the core waits for
		// the full round trip. This is what temporal streaming's
		// parallelization of dependence chains eliminates (§2.1).
		m.cycle = completion
	} else {
		// Independent misses overlap in the OoO window; the average
		// exposed penalty is latency/MLP plus any bandwidth queuing
		// (§5.6: spatially predictable OLTP accesses "are already issued
		// in parallel by out-of-order processing").
		m.cycle += (start - m.cycle) + m.cfg.OffChipCycles/uint64(m.cfg.MLP)
	}
}

// RunBlocks replays a block stream and finalizes accounting. A per-access
// trace.Source replays as RunBlocks(trace.Blocks(src)).
func (m *Machine) RunBlocks(bs trace.BlockSource) Result {
	var b trace.Block
	for bs.NextBlock(&b) {
		m.StepBlock(&b)
	}
	return m.Finish()
}

// StepBlock replays one columnar block, access by access in order. It
// iterates the block's columns in a tight loop: bounds checks are hoisted
// onto the column slices, and reads and writes are counted once per block
// from the write bitset, whose bits past N a Block keeps clear. Think
// models the committed work *preceding* an access, so it elapses before
// the reference (and before the prefetchers observe it).
func (m *Machine) StepBlock(b *trace.Block) {
	n := b.N
	if n == 0 {
		return
	}
	addrs := b.Addrs[:n]
	pcIdx := b.PCIdx[:n]
	think := b.Think[:n]
	dict := b.PCDict
	writeBits := b.WriteBits
	depBits := b.DepBits
	core := m.cfg.CoreCyclesPerAccess
	writes := 0
	for _, w := range writeBits {
		writes += bits.OnesCount64(w)
	}
	m.res.Accesses += uint64(n)
	m.res.Writes += uint64(writes)
	m.res.Reads += uint64(n - writes)
	for i := 0; i < n; i++ {
		a := trace.Access{
			Addr:  mem.Addr(addrs[i]),
			PC:    dict[pcIdx[i]],
			Write: writeBits[i>>6]&(1<<(uint(i)&63)) != 0,
			Dep:   depBits[i>>6]&(1<<(uint(i)&63)) != 0,
			Think: think[i],
		}
		m.cycle += core + uint64(a.Think)
		if m.l1.Access(a.Addr) {
			m.pf.OnAccess(a, true)
			m.res.L1Hits++
			continue
		}
		m.pf.OnAccess(a, false)
		m.stepMiss(a)
	}
}

// Finish drains the SVB (unconsumed prefetches become overpredictions) and
// returns the result.
func (m *Machine) Finish() Result {
	if m.engine != nil {
		m.engine.Drain()
		m.res.Overpredicted = m.engine.Stats().Overpredicted
	}
	if c, ok := m.pf.(ResultContributor); ok {
		c.ContributeResult(&m.res)
	}
	m.res.Cycles = m.cycle
	return m.res
}

// Cycle returns the current simulation time.
func (m *Machine) Cycle() uint64 { return m.cycle }

// CollectMissStreamBlocks replays bs through the cache hierarchy with no
// prefetching, invoking onMiss for every off-chip demand read miss and
// onEvict for every L1 eviction: the events a Machine with no prefetcher
// reports through OnOffChipEvent and OnL1Evict. This is the trace-analysis
// front end used by the Figure 6–8 studies, which classify the *baseline*
// miss stream. The hit path touches only the address column; the write
// bit is read only for off-chip misses, and the full access record is
// decoded only for the off-chip reads handed to onMiss.
func CollectMissStreamBlocks(cfg config.System, bs trace.BlockSource, onMiss func(trace.Access), onEvict func(mem.Addr)) {
	l1 := cache.New(cache.Config{SizeBytes: cfg.L1SizeBytes, Ways: cfg.L1Ways})
	l2 := cache.New(cache.Config{SizeBytes: cfg.L2SizeBytes, Ways: cfg.L2Ways})
	if onEvict != nil {
		l1.OnEvict = onEvict
	}
	var b trace.Block
	for bs.NextBlock(&b) {
		n := b.N
		addrs := b.Addrs[:n]
		writeBits := b.WriteBits
		for i := 0; i < n; i++ {
			addr := mem.Addr(addrs[i])
			if l1.Access(addr) {
				continue
			}
			if l2.Access(addr) {
				l1.Fill(addr)
				continue
			}
			l2.Fill(addr)
			l1.Fill(addr)
			if onMiss != nil && writeBits[i>>6]&(1<<(uint(i)&63)) == 0 {
				onMiss(b.At(i))
			}
		}
	}
}
