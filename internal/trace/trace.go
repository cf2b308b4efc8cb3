// Package trace defines the memory-access record that flows from workload
// generators into the simulator and the columnar BlockSource stream the
// replay pipeline runs on; a per-access Source (a caller's custom
// generator) enters it through the Blocks adapter. It also holds the
// compact resident BlockTrace (blocks packed column by column into their
// narrowest encoding, 5.3-6.3 bytes/access on the suite), the Arena that
// shares generated traces, and the binary trace file format.
//
// The paper's methodology (§5.1) analyzes memory traces collected with
// in-order functional simulation; this package is the equivalent interface
// between our synthetic workloads and the predictors.
package trace

import "stems/internal/mem"

// Access is one memory reference as observed at the L1 data cache.
type Access struct {
	// Addr is the byte address referenced.
	Addr mem.Addr
	// PC identifies the instruction performing the access. The spatial
	// predictors correlate patterns with the trigger PC (§2.4).
	PC uint64
	// Write marks stores. Stores train the spatial predictor and occupy
	// cache space but, mirroring the paper's store-wait-free memory model
	// (§5.1), never stall the simulated core and are excluded from
	// coverage accounting.
	Write bool
	// Dep marks an access whose address depends on the result of the
	// previous off-chip access (pointer chasing). The timing model
	// serializes dependent off-chip misses while overlapping independent
	// ones, reproducing the MLP distinction at the heart of §5.6.
	Dep bool
	// Think is the committed-instruction work (in core cycles) preceding
	// this access. Workload generators use it to set the fraction of
	// execution time spent on off-chip stalls, which Table 1 workloads
	// differ on (e.g. §5.6: "speedups are low in Oracle because the
	// baseline system spends only one-quarter of time on off-chip memory
	// accesses").
	Think uint16
}

// Source is a pull-based stream of accesses. Next fills *a and reports
// whether an access was produced; it returns false at end of stream.
// Implementations are not safe for concurrent use. The replay pipeline
// takes a Source batched into blocks by Blocks.
type Source interface {
	Next(a *Access) bool
}
