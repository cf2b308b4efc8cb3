// Package allocgate counts heap allocations exactly, for the tests that
// require a path to allocate nothing in steady state.
package allocgate

import (
	"runtime"
	"runtime/debug"
)

// Mallocs runs f once to warm it, then runs times more, and returns the
// exact number of heap allocations the measured runs made: unlike the
// integer mean of testing.AllocsPerRun, which reads 0 for up to runs-1
// allocations, it sees a single one. The collector is stopped while f
// runs, so no runtime work that follows a collection (such as the cleanup
// of the unique package's map) lands in the count.
func Mallocs(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.Gosched()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
