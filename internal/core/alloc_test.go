// Allocation gate for the batched lookup path: Reconstructor.Window —
// the PST/RMOB probe loop, the temporal placement, and the deferred
// recency/notify drains — must stay heap-free in steady state. The
// scratch probe table, expansion arena, and drain queues are all sized
// at construction, so any allocation here is a regression that taxes
// every reconstruction of every STeMS run.
package core

import (
	"math/rand"
	"testing"

	"stems/internal/allocgate"
	"stems/internal/mem"
)

// warmReconstructor builds a trained PST + populated RMOB pair large
// enough that Window exercises grouped probes, dedup hits, expansion
// walks, and collision displacement.
func warmReconstructor() (*Reconstructor, *RMOB) {
	pst := NewPST(1024, false, 1)
	rmob := NewRMOB(512)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2048; i++ {
		region := mem.Addr(rng.Intn(256)) * mem.RegionSize
		off := rng.Intn(mem.RegionBlocks)
		block := region + mem.Addr(off)*mem.BlockSize
		pc := uint64(1 + rng.Intn(32))
		k := Key{PC: pc, Offset: off}
		seq := make([]SeqElem, 1+rng.Intn(6))
		for j := range seq {
			seq[j] = SeqElem{Offset: int8(rng.Intn(mem.RegionBlocks) - off), Delta: uint8(rng.Intn(3))}
		}
		pst.Train(k, seq)
		rmob.Append(RMOBEntry{Block: block, PC: pc, Delta: uint8(rng.Intn(4))})
	}
	return NewReconstructor(pst, rmob, 256, 2), rmob
}

func TestWindowZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	rc, rmob := warmReconstructor()
	onRegion := func(region mem.Addr, k Key) {}
	oldest := rmob.Appends() - uint64(rmob.Len())
	i := uint64(0)
	if n := allocgate.Mallocs(100, func() {
		pos := oldest + i%64
		rc.Window(&pos, onRegion)
		i++
	}); n != 0 {
		t.Fatalf("Reconstructor.Window allocated %d objects in 100 windows, want 0", n)
	}
}
