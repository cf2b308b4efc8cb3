package figures

import (
	"fmt"
	"strings"

	"stems/internal/config"
	"stems/internal/mem"
	"stems/internal/sim"
	"stems/internal/trace"
	"stems/internal/workload"
)

// WorkloadRow characterizes one workload's trace and baseline behaviour —
// the §5.1/§5.2-style methodology table: how much of the suite misses, how
// much of the miss stream is dependent, how large the footprint is, and
// what share of baseline execution time the off-chip stalls take (the
// quantity §5.6 uses to explain Oracle's low speedups).
type WorkloadRow struct {
	Workload    string
	Class       workload.Class
	Accesses    uint64
	WriteFrac   float64
	DepFrac     float64 // dependent fraction of off-chip read misses
	Footprint   int     // distinct blocks touched
	MissRate    float64 // baseline off-chip read misses per read
	TriggerFrac float64
	StallFrac   float64 // off-chip stall share of baseline cycles
}

// characterize builds one workload's row from its base-seed trace.
func characterize(sys config.System, spec workload.Spec, bt *trace.BlockTrace) WorkloadRow {
	row := WorkloadRow{Workload: spec.Name, Class: spec.Class, Accesses: uint64(bt.Len())}
	blocks := make(map[mem.Addr]struct{})
	var writes uint64
	var b trace.Block
	for src := bt.Blocks(); src.NextBlock(&b); {
		for i := 0; i < b.N; i++ {
			a := b.At(i)
			if a.Write {
				writes++
			}
			blocks[a.Addr.Block()] = struct{}{}
		}
	}
	row.WriteFrac = float64(writes) / float64(bt.Len())
	row.Footprint = len(blocks)

	// Baseline run for miss and stall characteristics.
	m := sim.NewMachine(sys, sim.Nop{})
	var misses, depMisses, triggers uint64
	regions := map[mem.Addr]bool{}
	obs := observerFuncs{
		onOffChip: func(a trace.Access, covered bool) {
			if a.Write {
				return
			}
			misses++
			if a.Dep {
				depMisses++
			}
			if !regions[a.Addr.Region()] {
				regions[a.Addr.Region()] = true
				triggers++
			}
		},
	}
	m.SetPrefetcher(&obs)
	res := m.RunBlocks(bt.Blocks())

	reads := res.Reads
	if reads > 0 {
		row.MissRate = float64(misses) / float64(reads)
	}
	if misses > 0 {
		row.DepFrac = float64(depMisses) / float64(misses)
		row.TriggerFrac = float64(triggers) / float64(misses)
	}
	// Stall share: re-run with an idealized memory (all off-chip
	// latency removed) to isolate the stall component.
	ideal := sys
	ideal.OffChipCycles = 1
	mi := sim.NewMachine(ideal, sim.Nop{})
	ri := mi.RunBlocks(bt.Blocks())
	if res.Cycles > 0 {
		row.StallFrac = 1 - float64(ri.Cycles)/float64(res.Cycles)
	}
	return row
}

// observerFuncs adapts closures to sim.Prefetcher.
type observerFuncs struct {
	onOffChip func(trace.Access, bool)
}

func (o *observerFuncs) Name() string                { return "observer" }
func (o *observerFuncs) OnAccess(trace.Access, bool) {}
func (o *observerFuncs) OnL1Evict(mem.Addr)          {}
func (o *observerFuncs) OnOffChipEvent(a trace.Access, c bool) {
	if o.onOffChip != nil {
		o.onOffChip(a, c)
	}
}

// RenderWorkloads formats the characterization table.
func RenderWorkloads(rows []WorkloadRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Workload characterization (baseline system, no prefetching)\n\n")
	fmt.Fprintf(&b, "%-12s %-10s %9s %7s %10s %8s %8s %9s %9s\n",
		"Workload", "Class", "Accesses", "Writes", "Footprint", "MissRate", "DepMiss", "Triggers", "OffChip")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-10s %9d %6.1f%% %7.1f MB %7.1f%% %7.1f%% %8.1f%% %8.1f%%\n",
			r.Workload, r.Class, r.Accesses, 100*r.WriteFrac,
			float64(r.Footprint)*mem.BlockSize/(1<<20),
			100*r.MissRate, 100*r.DepFrac, 100*r.TriggerFrac, 100*r.StallFrac)
	}
	fmt.Fprintf(&b, "\nOffChip = share of baseline cycles spent on off-chip read stalls\n")
	fmt.Fprintf(&b, "(§5.6 notes Oracle spends only ~1/4 of its time off chip; DepMiss is the\n")
	fmt.Fprintf(&b, "pointer-chase share temporal streaming parallelizes)\n")
	return b.String()
}
