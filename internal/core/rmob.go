package core

import (
	"stems/internal/flat"
	"stems/internal/mem"
)

// RMOBEntry is one record of the region miss-order buffer: the miss block
// address, the PC of the missing instruction (for the spatial lookup
// index), and the reconstruction delta — global miss-order events skipped
// since the previous RMOB append (§4.1: "Each RMOB entry contains the block
// address, the PC of the miss instruction, and the reconstruction delta").
type RMOBEntry struct {
	Block mem.Addr
	PC    uint64
	Delta uint8
}

// RMOB is the region miss order buffer: a circular buffer in (simulated)
// main memory holding the temporal sequence of spatial triggers and
// spatially-unpredicted misses, plus an index mapping each block address to
// its most recent position. Spatially predictable misses are filtered out,
// which is why the paper's RMOB (128K entries) is one third the size of
// TMS's CMOB (§4.3). It is the miss-order ring every temporal predictor
// shares (flat.Ring), keyed by block address; its index holds a uint32
// slot per live block, at most 1 MB at the paper's 128K entries.
type RMOB = flat.Ring[mem.Addr, RMOBEntry]

// NewRMOB creates a buffer holding at most entries entries.
func NewRMOB(entries int) *RMOB {
	return flat.NewRing(entries, func(e RMOBEntry) mem.Addr { return e.Block })
}
