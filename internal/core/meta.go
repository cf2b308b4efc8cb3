package core

import (
	"stems/internal/lru"
	"stems/internal/mem"
)

// MetaModel models predictor virtualization (Burcea et al., ASPLOS 2008 —
// reference [2], discussed in §6: "mechanisms to store predictor metadata
// in existing on-chip caches, nearly obviating the need for dedicated
// storage. This technique can be applied directly to the history
// structures used by STeMS").
//
// The PST and RMOB live in main memory (§4.3); with virtualization their
// entries are cached on chip in a small metadata cache, and each metadata
// *miss* consumes memory bandwidth like any other 64B transfer. The model
// tracks which metadata blocks are resident and reports misses through a
// transfer callback supplied by the simulator, so metadata traffic competes
// with demand and prefetch traffic for channels.
type MetaModel struct {
	cache *lru.U64Map[struct{}]
	// Transfer is invoked for every metadata block fetched from memory;
	// the simulator charges a memory-channel slot.
	Transfer func()

	lookups uint64
	misses  uint64
}

// Metadata geometry: PST entries are 40B (§4.3), so ~1.6 fit per 64B
// block; RMOB entries are 8B, so 8 fit per block.
const (
	pstEntriesPerBlock  = 1
	rmobEntriesPerBlock = 8
)

// NewMetaModel creates a metadata cache of the given size in bytes
// (Burcea et al. dedicate a few tens of KB of L2 ways).
func NewMetaModel(sizeBytes int) *MetaModel {
	blocks := sizeBytes / mem.BlockSize
	if blocks <= 0 {
		blocks = 1
	}
	return &MetaModel{cache: lru.NewU64[struct{}](blocks)}
}

// touch references one metadata block, fetching it on a miss.
func (mm *MetaModel) touch(blockID uint64) {
	mm.lookups++
	if _, ok := mm.cache.Get(blockID); ok {
		return
	}
	mm.misses++
	mm.cache.Put(blockID, struct{}{})
	if mm.Transfer != nil {
		mm.Transfer()
	}
}

// TouchPST references the metadata block holding a PST entry.
func (mm *MetaModel) TouchPST(k Key) {
	// Tag PST blocks in their own ID space.
	id := (k.PC<<5 | uint64(k.Offset)) / pstEntriesPerBlock
	mm.touch(1<<63 | id)
}

// TouchRMOB references the metadata block holding an RMOB position.
func (mm *MetaModel) TouchRMOB(pos uint64) {
	mm.touch(pos / rmobEntriesPerBlock)
}

// Stats returns metadata lookups and misses.
func (mm *MetaModel) Stats() (lookups, misses uint64) { return mm.lookups, mm.misses }
