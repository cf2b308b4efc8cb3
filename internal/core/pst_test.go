package core

import (
	"testing"
	"testing/quick"

	"stems/internal/mem"
)

func TestPSTTrainAndLookup(t *testing.T) {
	p := NewPST(16, true, 2)
	k := Key{PC: 100, Offset: 3}
	if p.Lookup(k) != nil {
		t.Fatal("lookup on empty PST returned entry")
	}
	seq := []SeqElem{{Offset: 4, Delta: 0}, {Offset: -1, Delta: 1}}
	p.Train(k, seq)
	ent := p.Lookup(k)
	if ent == nil {
		t.Fatal("trained entry not found")
	}
	if len(ent.Sequence()) != 2 || ent.Sequence()[0].Offset != 4 || ent.Sequence()[1].Offset != -1 {
		t.Fatalf("stored seq = %+v", ent.Sequence())
	}
	if p.Trained() != 1 || p.Len() != 1 {
		t.Fatalf("Trained=%d Len=%d", p.Trained(), p.Len())
	}
}

func TestPSTCounterThreshold(t *testing.T) {
	p := NewPST(16, true, 2)
	k := Key{PC: 1, Offset: 0}
	seq := []SeqElem{{Offset: 5, Delta: 0}}
	p.Train(k, seq)
	if p.Predicts(p.Lookup(k), 5) {
		t.Fatal("predicted after one observation (counter=1 < threshold)")
	}
	p.Train(k, seq)
	if !p.Predicts(p.Lookup(k), 5) {
		t.Fatal("not predicted after two observations")
	}
}

func TestPSTCountersDecay(t *testing.T) {
	p := NewPST(16, true, 2)
	k := Key{PC: 1, Offset: 0}
	with := []SeqElem{{Offset: 5}, {Offset: 9}}
	without := []SeqElem{{Offset: 5}}
	p.Train(k, with)
	p.Train(k, with) // counter(9) = 2
	if !p.Predicts(p.Lookup(k), 9) {
		t.Fatal("offset 9 should be predicted")
	}
	p.Train(k, without) // counter(9) = 1
	p.Train(k, without) // counter(9) = 0 — but 9 left Seq after first without
	if p.Predicts(p.Lookup(k), 9) {
		t.Fatal("offset 9 still predicted after decay")
	}
	if !p.Predicts(p.Lookup(k), 5) {
		t.Fatal("stable offset 5 lost")
	}
}

func TestPSTLatestOrderWins(t *testing.T) {
	p := NewPST(16, true, 1)
	k := Key{PC: 1, Offset: 0}
	p.Train(k, []SeqElem{{Offset: 2, Delta: 0}, {Offset: 7, Delta: 3}})
	p.Train(k, []SeqElem{{Offset: 7, Delta: 1}, {Offset: 2, Delta: 0}})
	ent := p.Lookup(k)
	if ent.Sequence()[0].Offset != 7 || ent.Sequence()[0].Delta != 1 {
		t.Fatalf("latest order not stored: %+v", ent.Sequence())
	}
}

func TestPSTBitVectorMode(t *testing.T) {
	p := NewPST(16, false, 2)
	k := Key{PC: 1, Offset: 0}
	p.Train(k, []SeqElem{{Offset: 3}})
	if !p.Predicts(p.Lookup(k), 3) {
		t.Fatal("bitvec mode needs only one observation")
	}
	if p.Predicts(p.Lookup(k), 4) {
		t.Fatal("bitvec mode predicted untrained offset")
	}
}

func TestPSTPredictedSeqFiltersUnstable(t *testing.T) {
	p := NewPST(16, true, 2)
	k := Key{PC: 1, Offset: 0}
	p.Train(k, []SeqElem{{Offset: 1}, {Offset: 2}})
	p.Train(k, []SeqElem{{Offset: 1}, {Offset: 2}})
	p.Train(k, []SeqElem{{Offset: 1}, {Offset: 2}, {Offset: 9}})
	seq := p.AppendPredicted(nil, p.Lookup(k))
	for _, el := range seq {
		if el.Offset == 9 {
			t.Fatal("unstable offset 9 in predicted sequence")
		}
	}
	if len(seq) != 2 {
		t.Fatalf("predicted seq = %+v, want offsets 1,2", seq)
	}
}

func TestPSTEmptyTrainIgnored(t *testing.T) {
	p := NewPST(16, true, 2)
	p.Train(Key{PC: 1}, nil)
	if p.Len() != 0 || p.Trained() != 0 {
		t.Fatal("empty sequence trained")
	}
}

func TestPSTSequenceCappedAtRegionBlocks(t *testing.T) {
	p := NewPST(16, true, 1)
	long := make([]SeqElem, 40)
	for i := range long {
		long[i] = SeqElem{Offset: int8(i%31 + 1)}
	}
	p.Train(Key{PC: 1}, long)
	if got := len(p.Lookup(Key{PC: 1}).Sequence()); got > mem.RegionBlocks {
		t.Fatalf("stored sequence length %d > %d", got, mem.RegionBlocks)
	}
}

func TestPSTCapacityEviction(t *testing.T) {
	p := NewPST(2, true, 1)
	for pc := uint64(1); pc <= 3; pc++ {
		p.Train(Key{PC: pc}, []SeqElem{{Offset: 1}})
	}
	if p.Len() != 2 {
		t.Fatalf("Len = %d, want 2", p.Len())
	}
	if p.Lookup(Key{PC: 1}) != nil {
		t.Fatal("LRU entry survived eviction")
	}
}

func TestPSTNilEntryPredictsNothing(t *testing.T) {
	p := NewPST(4, true, 2)
	if p.Predicts(nil, 3) {
		t.Fatal("nil entry predicted")
	}
	if p.AppendPredicted(nil, nil) != nil {
		t.Fatal("nil entry returned sequence")
	}
}

// Property: counters never exceed 3 and never underflow, for any training
// history.
func TestPSTCounterSaturationProperty(t *testing.T) {
	f := func(rounds []bool) bool {
		p := NewPST(4, true, 2)
		k := Key{PC: 9}
		with := []SeqElem{{Offset: 3}}
		without := []SeqElem{{Offset: 4}}
		for _, r := range rounds {
			if r {
				p.Train(k, with)
			} else {
				p.Train(k, without)
			}
		}
		ent := p.Lookup(k)
		if ent == nil {
			return len(rounds) == 0
		}
		return ent.counterAt(3) <= 3 && ent.counterAt(4) <= 3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
