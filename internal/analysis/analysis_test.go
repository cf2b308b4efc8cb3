package analysis

import (
	"math/rand"
	"testing"

	"stems/internal/config"
	"stems/internal/mem"
	"stems/internal/trace"
)

func testSystem() config.System {
	s := config.DefaultSystem()
	s.L1SizeBytes = 4 << 10
	s.L2SizeBytes = 32 << 10
	return s
}

// ---- GenTracker ----

func acc(region, off int, pc uint64) trace.Access {
	return trace.Access{Addr: mem.Addr(region*mem.RegionSize + off*mem.BlockSize), PC: pc}
}

func TestGenTrackerTriggerDetection(t *testing.T) {
	g := NewGenTracker()
	if !g.OnMiss(acc(1, 3, 9)) {
		t.Fatal("first miss to a region not a trigger")
	}
	if g.OnMiss(acc(1, 5, 10)) {
		t.Fatal("second miss classified as trigger")
	}
	if g.OnMiss(acc(1, 3, 9)) {
		t.Fatal("repeat block classified as trigger")
	}
	if !g.OnMiss(acc(2, 0, 9)) {
		t.Fatal("miss to a second region not a trigger")
	}
	if g.Active() != 2 {
		t.Fatalf("active = %d, want 2", g.Active())
	}
}

func TestGenTrackerEndAndSequence(t *testing.T) {
	g := NewGenTracker()
	var gens []Generation
	g.OnEnd = func(gen Generation) { gens = append(gens, gen) }
	g.OnMiss(acc(1, 3, 9))
	g.OnMiss(acc(1, 7, 10))
	g.OnMiss(acc(1, 1, 11))
	// Evicting an untouched block must not end the generation.
	g.OnEvict(mem.Addr(1*mem.RegionSize + 20*mem.BlockSize))
	if len(gens) != 0 {
		t.Fatal("generation ended on non-member eviction")
	}
	g.OnEvict(mem.Addr(1*mem.RegionSize + 7*mem.BlockSize))
	if len(gens) != 1 {
		t.Fatalf("generations = %d, want 1", len(gens))
	}
	gen := gens[0]
	if gen.Key != (GenKey{PC: 9, Offset: 3}) {
		t.Fatalf("key = %+v", gen.Key)
	}
	want := []int{3, 7, 1}
	if len(gen.Seq) != 3 {
		t.Fatalf("seq = %v", gen.Seq)
	}
	for i := range want {
		if gen.Seq[i] != want[i] {
			t.Fatalf("seq = %v, want %v", gen.Seq, want)
		}
	}
}

func TestGenTrackerFlush(t *testing.T) {
	g := NewGenTracker()
	n := 0
	g.OnEnd = func(Generation) { n++ }
	g.OnMiss(acc(1, 0, 1))
	g.OnMiss(acc(2, 0, 1))
	g.Flush()
	if n != 2 || g.Active() != 0 {
		t.Fatalf("flush ended %d generations, active=%d", n, g.Active())
	}
}

// ---- tmsOracle ----

func TestTMSOracleRepeatedSequence(t *testing.T) {
	o := newTMSOracle(4, 8)
	seq := []mem.Addr{64, 128, 192, 256, 320}
	for _, b := range seq {
		if o.observe(b) {
			t.Fatal("cold sequence classified predicted")
		}
	}
	// Replay: the head restarts a stream; the rest must be predicted.
	if o.observe(seq[0]) {
		t.Fatal("stream head classified predicted")
	}
	for _, b := range seq[1:] {
		if !o.observe(b) {
			t.Fatalf("replayed element %v not predicted", b)
		}
	}
}

func TestTMSOracleToleratesSmallReorder(t *testing.T) {
	o := newTMSOracle(4, 8)
	seq := []mem.Addr{64, 128, 192, 256, 320, 384}
	for _, b := range seq {
		o.observe(b)
	}
	o.observe(seq[0])
	// Swap two elements within the window.
	if !o.observe(seq[2]) || !o.observe(seq[1]) {
		t.Fatal("reorder within window not predicted")
	}
}

func TestTMSOracleRandomUnpredicted(t *testing.T) {
	o := newTMSOracle(4, 8)
	rng := rand.New(rand.NewSource(5))
	predicted := 0
	for i := 0; i < 2000; i++ {
		if o.observe(mem.Addr(rng.Intn(1<<20) * 64)) {
			predicted++
		}
	}
	if predicted > 40 {
		t.Fatalf("random stream predicted %d/2000", predicted)
	}
}

// ---- Categorize (Figure 7 taxonomy) ----

func TestCategorizeRepeatedSequence(t *testing.T) {
	// 1 2 3 4 | 1 2 3 4 : first occurrence new, second = head + 3 opp.
	res := Categorize([]uint64{1, 2, 3, 4, 1, 2, 3, 4})
	if res.Total() != 8 {
		t.Fatalf("total = %d", res.Total())
	}
	if res.New != 4 {
		t.Errorf("new = %d, want 4", res.New)
	}
	if res.Head != 1 {
		t.Errorf("head = %d, want 1", res.Head)
	}
	if res.Opportunity != 3 {
		t.Errorf("opportunity = %d, want 3", res.Opportunity)
	}
	if res.NonRepetitive != 0 {
		t.Errorf("non-rep = %d, want 0", res.NonRepetitive)
	}
}

func TestCategorizeNonRepetitive(t *testing.T) {
	res := Categorize([]uint64{1, 2, 3, 4, 5, 6, 7, 8})
	if res.NonRepetitive != 8 || res.Opportunity != 0 {
		t.Fatalf("breakdown = %+v", res)
	}
}

func TestCategorizeManyOccurrences(t *testing.T) {
	// Phrase repeated 5 times: 1 new block, 4 heads, 4*(L-1) opportunity.
	phrase := []uint64{10, 11, 12, 13, 14, 15}
	var in []uint64
	for i := 0; i < 5; i++ {
		in = append(in, phrase...)
	}
	res := Categorize(in)
	if res.Total() != uint64(len(in)) {
		t.Fatalf("total = %d, want %d", res.Total(), len(in))
	}
	if res.NonRepetitive != 0 {
		t.Errorf("non-rep = %d, want 0 on pure repetition", res.NonRepetitive)
	}
	// The grammar may group occurrences hierarchically (e.g. a rule for two
	// phrases), so exact head counts depend on the parse; but at most two
	// phrase-lengths can be "new" and at least half the input must be
	// repetitive opportunity.
	if res.New > uint64(2*len(phrase)) {
		t.Errorf("new = %d, want <= %d", res.New, 2*len(phrase))
	}
	if res.Opportunity < uint64(len(in)/2) {
		t.Errorf("opportunity = %d, want >= %d", res.Opportunity, len(in)/2)
	}
	if res.Head == 0 {
		t.Error("no heads on repeated input")
	}
}

func TestCategorizeMassConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	in := make([]uint64, 5000)
	for i := range in {
		in[i] = uint64(rng.Intn(100))
	}
	res := Categorize(in)
	if res.Total() != uint64(len(in)) {
		t.Fatalf("classified %d of %d symbols", res.Total(), len(in))
	}
}

// ---- Joint (Figure 6) ----

// spatialTrace: many fresh regions sharing one PC/layout — SMS-predictable,
// TMS-hopeless.
func spatialTrace(n int) trace.BlockSource {
	var accs []trace.Access
	offsets := []int{0, 4, 9, 13}
	region := 100
	for len(accs) < n {
		for _, off := range offsets {
			accs = append(accs, acc(region, off, 0x42))
		}
		region++
	}
	return trace.NewBlockTrace(accs[:n]).Blocks()
}

// temporalTrace: one long pointer-chase sequence over scattered blocks,
// repeated — TMS-predictable, SMS-hopeless.
func temporalTrace(n int) trace.BlockSource {
	rng := rand.New(rand.NewSource(11))
	chain := make([]trace.Access, 400)
	for i := range chain {
		chain[i] = trace.Access{
			Addr: mem.Addr(rng.Intn(1 << 22)).Block(),
			PC:   uint64(0x9000 + i%7),
			Dep:  true,
		}
	}
	var accs []trace.Access
	for len(accs) < n {
		accs = append(accs, chain...)
	}
	return trace.NewBlockTrace(accs[:n]).Blocks()
}

func TestJointSpatialWorkload(t *testing.T) {
	res := Joint(testSystem(), config.DefaultSMS(), spatialTrace(40000))
	if res.SMSCoverage() < 0.5 {
		t.Fatalf("SMS coverage %.2f on a purely spatial workload", res.SMSCoverage())
	}
	if res.TMSCoverage() > 0.2 {
		t.Fatalf("TMS coverage %.2f on compulsory misses", res.TMSCoverage())
	}
}

func TestJointTemporalWorkload(t *testing.T) {
	res := Joint(testSystem(), config.DefaultSMS(), temporalTrace(40000))
	if res.TMSCoverage() < 0.5 {
		t.Fatalf("TMS coverage %.2f on a repeating chain", res.TMSCoverage())
	}
}

func TestJointResultArithmetic(t *testing.T) {
	r := JointResult{Both: 10, TMSOnly: 20, SMSOnly: 30, Neither: 40}
	if r.Total() != 100 {
		t.Fatal("total wrong")
	}
	near := func(a, b float64) bool { d := a - b; return d < 1e-12 && d > -1e-12 }
	b, tm, s, n := r.Frac()
	if !near(b, 0.1) || !near(tm, 0.2) || !near(s, 0.3) || !near(n, 0.4) {
		t.Fatalf("fracs = %v %v %v %v", b, tm, s, n)
	}
	if !near(r.TMSCoverage(), 0.3) || !near(r.SMSCoverage(), 0.4) || !near(r.JointCoverage(), 0.6) {
		t.Fatal("coverage aggregates wrong")
	}
	if (JointResult{}).JointCoverage() != 0 {
		t.Fatal("empty result coverage not 0")
	}
}

// ---- CorrDistances (Figure 8) ----

// genTrace emits the same region layout in a fixed or jittered order over
// many fresh regions under one PC.
func genTrace(n int, swap bool) trace.BlockSource {
	var accs []trace.Access
	region := 100
	for len(accs) < n {
		offs := []int{0, 2, 5, 8, 11}
		if swap && region%2 == 1 {
			offs = []int{0, 5, 2, 8, 11} // one adjacent transposition
		}
		for _, off := range offs {
			accs = append(accs, acc(region, off, 0x77))
		}
		region++
	}
	return trace.NewBlockTrace(accs[:n]).Blocks()
}

func TestCorrDistPerfectRepetition(t *testing.T) {
	cd := CorrDistances(testSystem(), genTrace(30000, false))
	if cd.Pairs == 0 {
		t.Fatal("no pairs evaluated")
	}
	if frac := cd.Hist.Frac(1); frac < 0.99 {
		t.Fatalf("perfect repetition: +1 fraction = %.3f", frac)
	}
	if cd.WithinWindow(2) < 0.99 {
		t.Fatal("window(2) < 99% on perfect repetition")
	}
}

func TestCorrDistDetectsReordering(t *testing.T) {
	cd := CorrDistances(testSystem(), genTrace(30000, true))
	if cd.Hist.Frac(1) > 0.9 {
		t.Fatalf("+1 fraction %.3f despite transpositions", cd.Hist.Frac(1))
	}
	// A single adjacent transposition keeps everything within window 3.
	if cd.WithinWindow(3) < 0.95 {
		t.Fatalf("window(3) = %.3f", cd.WithinWindow(3))
	}
}

func TestCorrDistUnmatchedPairs(t *testing.T) {
	// Generations whose footprints change completely between occurrences:
	// consecutive pairs cannot be located in the prior sequence.
	var accs []trace.Access
	for r := 0; r < 400; r++ {
		offs := []int{0, 2, 4}
		if r%2 == 1 {
			offs = []int{0, 9, 11} // same trigger, disjoint body
		}
		for _, off := range offs {
			accs = append(accs, acc(100+r%2*1000, off, 0x5))
		}
		// Alternate regions so generations close via eviction pressure.
	}
	cd := CorrDistances(testSystem(), trace.NewBlockTrace(accs).Blocks())
	if cd.Unmatched == 0 {
		t.Fatalf("no unmatched pairs despite disjoint footprints: %+v", cd)
	}
}
