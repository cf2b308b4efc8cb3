// Command tracegen generates a workload's access trace and writes it to a
// binary trace file (or summarizes it), decoupling trace generation from
// simulation the way the paper's methodology does (§5.1: traces are
// collected once with in-order functional simulation, then analyzed under
// every predictor).
//
//	tracegen -workload DB2 -o db2.trace
//	tracegen -workload em3d -stats
//	stemsim -trace db2.trace -prefetcher stems
//
// Files are written in the columnar v2 frame format, with delta-coded
// addresses and PC dictionaries. -stats reports the record count,
// distinct PCs, and the bytes/access of v2 next to the fixed-width 24
// bytes/record of the legacy v1 format (which stemsim still reads), so
// the v2 compression is observable per workload.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"stems"
	"stems/internal/mem"
)

func main() {
	var (
		wl       = flag.String("workload", "DB2", "workload name: "+strings.Join(stems.WorkloadNames(), ", "))
		out      = flag.String("o", "", "output trace file (empty = stats only)")
		seed     = flag.Int64("seed", 1, "workload seed")
		accesses = flag.Int("accesses", 0, "trace length (0 = workload default)")
		stats    = flag.Bool("stats", false, "print trace statistics")
	)
	flag.Parse()

	spec, err := stems.WorkloadByName(*wl)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	n := spec.DefaultAccesses
	if *accesses > 0 {
		n = *accesses
	}
	accs := spec.Generate(*seed, n)

	// When a file is written, its byte count doubles as the v2 size in
	// -stats, sparing a redundant encode.
	var v2Bytes int64
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cw := &countWriter{w: f}
		w := stems.NewTraceWriter(cw)
		if err := w.WriteAll(accs); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := w.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d accesses to %s (v2, %d bytes, %.2f bytes/access)\n",
			w.Count(), *out, cw.n, float64(cw.n)/float64(len(accs)))
		v2Bytes = cw.n
	}

	if *stats || *out == "" {
		if *out == "" {
			v2Bytes = encodedSize(accs)
		}
		printStats(spec, accs, v2Bytes)
	}
}

// countWriter counts bytes passing through to w (which may be nil for
// size-only encoding).
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	if c.w == nil {
		return len(p), nil
	}
	return c.w.Write(p)
}

// encodedSize returns the byte size of accs as a v2 trace file.
func encodedSize(accs []stems.Access) int64 {
	cw := &countWriter{}
	w := stems.NewTraceWriter(cw)
	if err := w.WriteAll(accs); err != nil {
		panic(err)
	}
	if err := w.Flush(); err != nil {
		panic(err)
	}
	return cw.n
}

// printStats summarizes accs; v2 is their v2 file size. The v1 size is
// computed, not encoded: a 16-byte header and one 24-byte record per
// access.
func printStats(spec stems.Workload, accs []stems.Access, v2 int64) {
	var writes, deps uint64
	regions := map[mem.Addr]bool{}
	blocks := map[mem.Addr]bool{}
	pcs := map[uint64]bool{}
	var think uint64
	for _, a := range accs {
		if a.Write {
			writes++
		}
		if a.Dep {
			deps++
		}
		regions[a.Addr.Region()] = true
		blocks[a.Addr.Block()] = true
		pcs[a.PC] = true
		think += uint64(a.Think)
	}
	n := float64(len(accs))
	v1 := int64(16 + 24*len(accs))
	fmt.Printf("workload:         %s (%s)\n", spec.Name, spec.Class)
	fmt.Printf("accesses:         %d\n", len(accs))
	fmt.Printf("writes:           %.1f%%\n", 100*float64(writes)/n)
	fmt.Printf("dependent:        %.1f%%\n", 100*float64(deps)/n)
	fmt.Printf("distinct blocks:  %d (%.1f MB footprint)\n",
		len(blocks), float64(len(blocks))*mem.BlockSize/(1<<20))
	fmt.Printf("distinct regions: %d\n", len(regions))
	fmt.Printf("distinct PCs:     %d\n", len(pcs))
	fmt.Printf("mean think:       %.1f cycles/access\n", float64(think)/n)
	fmt.Printf("v1 size:          %d bytes (%.2f bytes/access)\n", v1, float64(v1)/n)
	fmt.Printf("v2 size:          %d bytes (%.2f bytes/access, %.1fx smaller)\n",
		v2, float64(v2)/n, float64(v1)/float64(v2))
}
