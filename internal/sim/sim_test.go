package sim

import (
	"testing"

	"stems/internal/config"
	"stems/internal/mem"
	"stems/internal/stream"
	"stems/internal/trace"
)

func testSystem() config.System {
	s := config.DefaultSystem()
	s.L1SizeBytes = 1 << 10 // 16 blocks: evictions happen fast in tests
	s.L2SizeBytes = 8 << 10
	return s
}

func read(block int) trace.Access {
	return trace.Access{Addr: mem.Addr(block * mem.BlockSize)}
}

// step replays one access through the block kernel.
func step(m *Machine, a trace.Access) {
	var b trace.Block
	b.Append(a)
	m.StepBlock(&b)
}

func TestL1HitCost(t *testing.T) {
	m := NewMachine(testSystem(), Nop{})
	step(m, read(1)) // off-chip miss
	c := m.Cycle()
	step(m, read(1)) // L1 hit
	if got := m.Cycle() - c; got != testSystem().CoreCyclesPerAccess {
		t.Fatalf("L1 hit cost = %d, want %d", got, testSystem().CoreCyclesPerAccess)
	}
}

func TestOffChipCosts(t *testing.T) {
	sys := testSystem()
	m := NewMachine(sys, Nop{})
	c0 := m.Cycle()
	step(m, read(1)) // independent off-chip miss
	indep := m.Cycle() - c0
	wantIndep := sys.CoreCyclesPerAccess + sys.OffChipCycles/uint64(sys.MLP)
	if indep != wantIndep {
		t.Fatalf("independent miss cost = %d, want %d", indep, wantIndep)
	}
	c1 := m.Cycle()
	step(m, trace.Access{Addr: mem.Addr(99 * mem.BlockSize), Dep: true})
	dep := m.Cycle() - c1
	wantDep := sys.CoreCyclesPerAccess + sys.OffChipCycles
	if dep != wantDep {
		t.Fatalf("dependent miss cost = %d, want %d", dep, wantDep)
	}
}

func TestL2HitCost(t *testing.T) {
	sys := testSystem()
	m := NewMachine(sys, Nop{})
	step(m, read(1))
	// Evict block 1 from the tiny L1 (same set: stride = sets*64).
	sets := (sys.L1SizeBytes / 64) / sys.L1Ways
	for i := 1; i <= sys.L1Ways; i++ {
		step(m, read(1+i*sets))
	}
	c := m.Cycle()
	step(m, read(1)) // L1 miss, L2 hit
	got := m.Cycle() - c
	want := sys.CoreCyclesPerAccess + sys.L2HitCycles
	if got != want {
		t.Fatalf("L2 hit cost = %d, want %d", got, want)
	}
}

func TestWritesNeverStall(t *testing.T) {
	sys := testSystem()
	m := NewMachine(sys, Nop{})
	c := m.Cycle()
	step(m, trace.Access{Addr: 0x100000, Write: true}) // off-chip write
	if got := m.Cycle() - c; got != sys.CoreCyclesPerAccess {
		t.Fatalf("write stalled %d cycles (store-wait-free model)", got)
	}
	res := m.Finish()
	if res.OffChipReads != 0 {
		t.Fatal("write counted as off-chip read")
	}
	if res.Writes != 1 {
		t.Fatalf("writes = %d", res.Writes)
	}
}

func TestThinkTimeAccrues(t *testing.T) {
	m := NewMachine(testSystem(), Nop{})
	step(m, read(1))
	c := m.Cycle()
	step(m, trace.Access{Addr: 64, Think: 500})
	if got := m.Cycle() - c; got != 500+testSystem().CoreCyclesPerAccess {
		t.Fatalf("think cost = %d", got)
	}
}

// coveringPrefetcher fetches a fixed block on the first off-chip event.
type coveringPrefetcher struct {
	engine *stream.Engine
	target mem.Addr
	done   bool
}

func (p *coveringPrefetcher) Name() string                { return "test-cover" }
func (p *coveringPrefetcher) OnAccess(trace.Access, bool) {}
func (p *coveringPrefetcher) OnL1Evict(mem.Addr)          {}
func (p *coveringPrefetcher) OnOffChipEvent(a trace.Access, covered bool) {
	if !p.done {
		p.engine.Direct(p.target)
		p.done = true
	}
}

func TestSVBCoverageAccounting(t *testing.T) {
	sys := testSystem()
	m := NewMachine(sys, Nop{})
	eng := m.AttachEngine(stream.Config{SVBEntries: 8})
	pf := &coveringPrefetcher{engine: eng, target: read(50).Addr}
	m.SetPrefetcher(pf)

	step(m, read(1))  // miss -> prefetch block 50 issued
	step(m, read(50)) // must hit the SVB
	res := m.Finish()
	if res.Covered != 1 {
		t.Fatalf("covered = %d, want 1", res.Covered)
	}
	if res.OffChipReads != 1 {
		t.Fatalf("off-chip reads = %d, want 1 (the trigger)", res.OffChipReads)
	}
	if res.BaselineMisses() != 2 {
		t.Fatalf("baseline misses = %d, want 2", res.BaselineMisses())
	}
	if res.Coverage() != 0.5 {
		t.Fatalf("coverage = %v, want 0.5", res.Coverage())
	}
}

func TestUnusedPrefetchIsOverprediction(t *testing.T) {
	m := NewMachine(testSystem(), Nop{})
	eng := m.AttachEngine(stream.Config{SVBEntries: 8})
	pf := &coveringPrefetcher{engine: eng, target: read(777).Addr}
	m.SetPrefetcher(pf)
	step(m, read(1))
	res := m.Finish()
	if res.Overpredicted != 1 {
		t.Fatalf("overpredicted = %d, want 1", res.Overpredicted)
	}
	if res.OverpredictionRate() != 1.0 {
		t.Fatalf("rate = %v, want 1.0", res.OverpredictionRate())
	}
}

func TestInFlightSVBHitWaits(t *testing.T) {
	sys := testSystem()
	m := NewMachine(sys, Nop{})
	eng := m.AttachEngine(stream.Config{SVBEntries: 8})
	pf := &coveringPrefetcher{engine: eng, target: read(50).Addr}
	m.SetPrefetcher(pf)
	step(m, read(1)) // prefetch issues ~here; ready at ~issue+400
	c := m.Cycle()
	step(m, read(50)) // SVB hit but in flight: waits for arrival
	wait := m.Cycle() - c
	if wait <= sys.SVBHitCycles+sys.CoreCyclesPerAccess {
		t.Fatalf("in-flight hit did not wait (cost %d)", wait)
	}
	if wait > sys.OffChipCycles+sys.CoreCyclesPerAccess {
		t.Fatalf("in-flight hit waited longer than a full miss (%d)", wait)
	}
}

func TestChannelBackpressure(t *testing.T) {
	// With one channel and heavy occupancy, back-to-back misses queue.
	sys := testSystem()
	sys.MemChannels = 1
	sys.ChannelOccupancy = 300
	m := NewMachine(sys, Nop{})
	var last uint64
	for i := 0; i < 8; i++ {
		step(m, trace.Access{Addr: mem.Addr(0x100000 + i*64)})
		d := m.Cycle() - last
		last = m.Cycle()
		_ = d
	}
	congested := m.Cycle()

	sys.MemChannels = 8
	m2 := NewMachine(sys, Nop{})
	for i := 0; i < 8; i++ {
		step(m2, trace.Access{Addr: mem.Addr(0x100000 + i*64)})
	}
	if congested <= m2.Cycle() {
		t.Fatalf("1-channel run (%d cycles) not slower than 8-channel (%d)", congested, m2.Cycle())
	}
}

func TestScientificLookahead(t *testing.T) {
	opt := DefaultOptions()
	opt.Scientific = true
	if got := opt.StreamLookahead(8); got != 12 {
		t.Fatalf("scientific lookahead = %d, want 12", got)
	}
	opt.Scientific = false
	if got := opt.StreamLookahead(8); got != 8 {
		t.Fatalf("commercial lookahead = %d, want 8", got)
	}
}

func TestRegistryErrors(t *testing.T) {
	if err := Register("", func(*Machine, Options) error { return nil }); err == nil {
		t.Fatal("registering an empty name succeeded")
	}
	if err := Register("test-nil-builder", nil); err == nil {
		t.Fatal("registering a nil builder succeeded")
	}
	// "none" is registered by this package's init.
	if err := Register(KindNone, func(*Machine, Options) error { return nil }); err == nil {
		t.Fatal("duplicate registration of KindNone succeeded")
	}
	if !IsRegistered(KindNone) {
		t.Fatal("KindNone not registered")
	}
	if _, err := Build("bogus", DefaultOptions()); err == nil {
		t.Fatal("Build(bogus) succeeded")
	}
}

func TestCollectMissStream(t *testing.T) {
	sys := testSystem()
	var misses []mem.Addr
	var evicts int
	accs := []trace.Access{
		read(1), read(1), // second is an L1 hit
		{Addr: 0x40000, Write: true}, // write miss: not reported
		read(2),
	}
	CollectMissStreamBlocks(sys, trace.NewBlockTrace(accs).Blocks(),
		func(a trace.Access) { misses = append(misses, a.Addr.Block()) },
		func(mem.Addr) { evicts++ })
	want := []mem.Addr{read(1).Addr.Block(), read(2).Addr.Block()}
	if len(misses) != len(want) {
		t.Fatalf("misses = %v, want %v", misses, want)
	}
	for i := range want {
		if misses[i] != want[i] {
			t.Fatalf("miss %d = %v, want %v", i, misses[i], want[i])
		}
	}
}

func TestResultString(t *testing.T) {
	r := Result{Prefetcher: "x", Covered: 50, OffChipReads: 50, Overpredicted: 10}
	s := r.String()
	if s == "" {
		t.Fatal("empty result string")
	}
	if r.Coverage() != 0.5 || r.OverpredictionRate() != 0.1 {
		t.Fatalf("coverage=%v over=%v", r.Coverage(), r.OverpredictionRate())
	}
	var zero Result
	if zero.Coverage() != 0 || zero.OverpredictionRate() != 0 {
		t.Fatal("zero result rates not zero")
	}
}

func TestNewMachinePanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for invalid system")
		}
	}()
	NewMachine(config.System{}, Nop{})
}

// TestStoreInvalidatesSVBEntry: a store to a prefetched block must drop the
// stale SVB copy so a later read refetches coherent data.
func TestStoreInvalidatesSVBEntry(t *testing.T) {
	m := NewMachine(testSystem(), Nop{})
	eng := m.AttachEngine(stream.Config{SVBEntries: 8})
	pf := &coveringPrefetcher{engine: eng, target: read(50).Addr}
	m.SetPrefetcher(pf)
	step(m, read(1))                                        // prefetch block 50
	step(m, trace.Access{Addr: read(50).Addr, Write: true}) // store to it
	step(m, read(50))
	res := m.Finish()
	if res.Covered != 0 {
		t.Fatal("stale SVB entry served a read after a store")
	}
	if res.Overpredicted != 1 {
		t.Fatalf("overpredicted = %d, want 1 (invalidated prefetch)", res.Overpredicted)
	}
}
