package tms

import (
	"testing"

	"stems/internal/config"
	"stems/internal/mem"
	"stems/internal/stream"
	"stems/internal/trace"
)

type recordingFetcher struct{ blocks []mem.Addr }

func (f *recordingFetcher) Fetch(b mem.Addr) uint64 {
	f.blocks = append(f.blocks, b)
	return 0
}

func newTestTMS(cmob int) (*TMS, *stream.Engine, *recordingFetcher) {
	f := &recordingFetcher{}
	eng := stream.NewEngine(stream.Config{Queues: 8, Lookahead: 4, SVBEntries: 64}, f)
	cfg := config.DefaultTMS()
	cfg.CMOBEntries = cmob
	cfg.Lookahead = 4
	return New(cfg, eng), eng, f
}

func miss(block int) trace.Access {
	return trace.Access{Addr: mem.Addr(block * mem.BlockSize)}
}

// replay sends a sequence of miss events, reporting covered per the SVB.
func replay(t *TMS, eng *stream.Engine, blocks []int) (covered int) {
	for _, b := range blocks {
		a := miss(b)
		hit, _ := eng.Lookup(a.Addr)
		if hit {
			covered++
		}
		t.OnOffChipEvent(a, hit)
	}
	return covered
}

func TestFirstTraversalRecordsOnly(t *testing.T) {
	tm, eng, f := newTestTMS(1024)
	seq := []int{10, 20, 30, 40, 50}
	if got := replay(tm, eng, seq); got != 0 {
		t.Fatalf("first traversal covered %d, want 0", got)
	}
	if tm.Stats().Appends != 5 {
		t.Fatalf("appends = %d, want 5", tm.Stats().Appends)
	}
	if len(f.blocks) != 0 {
		t.Fatalf("prefetched during cold traversal: %v", f.blocks)
	}
}

func TestSecondTraversalStreams(t *testing.T) {
	tm, eng, _ := newTestTMS(1024)
	seq := []int{10, 20, 30, 40, 50, 60, 70, 80}
	replay(tm, eng, seq)
	covered := replay(tm, eng, seq)
	// The first miss of the replay restarts the stream (cannot be covered);
	// everything after it should stream from the CMOB.
	if covered < len(seq)-2 {
		t.Fatalf("second traversal covered %d of %d", covered, len(seq))
	}
	if tm.Stats().StreamsBegun == 0 {
		t.Fatal("no stream started")
	}
}

func TestStreamFollowsRecordedOrder(t *testing.T) {
	tm, eng, f := newTestTMS(1024)
	seq := []int{5, 9, 2, 14, 7}
	replay(tm, eng, seq)
	f.blocks = nil
	// Re-miss the first element: the probe fetch must be the *second*
	// element of the recorded sequence.
	a := miss(5)
	tm.OnOffChipEvent(a, false)
	if len(f.blocks) == 0 {
		t.Fatal("no prefetch after re-miss")
	}
	if f.blocks[0] != miss(9).Addr.Block() {
		t.Fatalf("first streamed block = %v, want block 9", f.blocks[0])
	}
}

func TestMidSequenceEntry(t *testing.T) {
	tm, eng, f := newTestTMS(1024)
	seq := []int{10, 20, 30, 40, 50}
	replay(tm, eng, seq)
	f.blocks = nil
	tm.OnOffChipEvent(miss(30), false)
	if len(f.blocks) == 0 || f.blocks[0] != miss(40).Addr.Block() {
		t.Fatalf("mid-sequence stream = %v, want to start at block 40", f.blocks)
	}
}

func TestUnknownAddressNoStream(t *testing.T) {
	tm, eng, _ := newTestTMS(1024)
	replay(tm, eng, []int{1, 2, 3})
	before := tm.Stats().StreamsBegun
	tm.OnOffChipEvent(miss(999), false)
	if tm.Stats().StreamsBegun != before {
		t.Fatal("stream started for never-seen address")
	}
	if tm.Stats().LookupMisses == 0 {
		t.Fatal("lookup miss not counted")
	}
}

func TestRingWrapInvalidatesStaleIndex(t *testing.T) {
	tm, eng, _ := newTestTMS(8)
	replay(tm, eng, []int{1, 2, 3, 4})
	// Overflow the 8-entry CMOB so blocks 1..4 are overwritten.
	replay(tm, eng, []int{100, 101, 102, 103, 104, 105, 106, 107})
	before := tm.Stats().StreamsBegun
	tm.OnOffChipEvent(miss(1), false)
	if tm.Stats().StreamsBegun != before {
		t.Fatal("stream started from overwritten CMOB region")
	}
}

func TestCMOBLen(t *testing.T) {
	tm, eng, _ := newTestTMS(4)
	if tm.CMOBLen() != 0 {
		t.Fatalf("empty CMOBLen = %d", tm.CMOBLen())
	}
	replay(tm, eng, []int{1, 2})
	if tm.CMOBLen() != 2 {
		t.Fatalf("CMOBLen = %d, want 2", tm.CMOBLen())
	}
	replay(tm, eng, []int{3, 4, 5, 6})
	if tm.CMOBLen() != 4 {
		t.Fatalf("CMOBLen after wrap = %d, want 4", tm.CMOBLen())
	}
}

func TestCoveredMissesAppendButDoNotStartStreams(t *testing.T) {
	tm, eng, _ := newTestTMS(1024)
	seq := []int{10, 20, 30, 40, 50, 60}
	replay(tm, eng, seq)
	begun := tm.Stats().StreamsBegun
	covered := replay(tm, eng, seq)
	if covered == 0 {
		t.Fatal("replay covered nothing")
	}
	// Only the uncovered misses (the stream head) should begin streams.
	newStreams := tm.Stats().StreamsBegun - begun
	if newStreams > uint64(len(seq)-covered) {
		t.Fatalf("covered misses started streams: %d streams, %d uncovered",
			newStreams, len(seq)-covered)
	}
	// Appends continue for covered misses, keeping sequences fresh.
	if tm.Stats().Appends != uint64(2*len(seq)) {
		t.Fatalf("appends = %d, want %d", tm.Stats().Appends, 2*len(seq))
	}
}

func TestWritesIgnored(t *testing.T) {
	tm, _, _ := newTestTMS(64)
	tm.OnOffChipEvent(trace.Access{Addr: 64, Write: true}, false)
	if tm.Stats().Appends != 0 {
		t.Fatal("write appended to CMOB")
	}
}

func TestLongStreamRefills(t *testing.T) {
	tm, eng, _ := newTestTMS(4096)
	// A long sequence: after replay, a single stream must cover far more
	// than the initial chunk (2*lookahead = 8), proving Refill works.
	seq := make([]int, 200)
	for i := range seq {
		seq[i] = 1000 + i*3
	}
	replay(tm, eng, seq)
	covered := replay(tm, eng, seq)
	if covered < 150 {
		t.Fatalf("long replay covered only %d of 200 (refill broken?)", covered)
	}
}

func TestDependentChainParallelized(t *testing.T) {
	// The paper's key TMS property (§2.1): dependence chains are fetched in
	// parallel because the sequence stores the addresses themselves. Here:
	// after training, the stream engine holds several chain blocks ready
	// before the processor asks for them.
	tm, eng, f := newTestTMS(1024)
	chain := []int{3, 77, 12, 901, 44, 6, 250, 18}
	replay(tm, eng, chain)
	f.blocks = nil
	tm.OnOffChipEvent(miss(3), false) // head miss restarts stream
	eng.Lookup(miss(77).Addr)         // consume probe -> stream opens
	if len(f.blocks) < 4 {
		t.Fatalf("only %d chain blocks in flight, want >= lookahead", len(f.blocks))
	}
}
