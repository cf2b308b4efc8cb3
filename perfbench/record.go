package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"stems"
)

// gridRecorded is how many serve-grid jobs of a recorded seed have
// digests; a run that completes more checks the rest by sampling.
const gridRecorded = 200

// recordDigests computes locally, through stems.Sweep, the digests that
// digests.json holds for the given comma-separated seeds and prints the
// file's content. The daemon must reproduce them: the benchmark checks
// its results against them.
func recordDigests(ctx context.Context, w io.Writer, seeds string) error {
	rec := recorded{Sweep: map[string][]string{}, ServeHits: map[string]string{}, ServeGrid: map[string][]string{}}
	for _, f := range strings.Split(seeds, ",") {
		seed, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil || seed < 1 {
			return fmt.Errorf("bad seed %q", f)
		}
		var sweep []stems.RunSpec
		for _, c := range sweepCells() {
			sweep = append(sweep, c.spec(traceSeed(seed, c.Workload)))
		}
		if rec.Sweep[seedKey(seed)], err = localDigests(ctx, sweep); err != nil {
			return err
		}
		_, keys := hitKeySet(seed)
		hits, err := localDigests(ctx, keys)
		if err != nil {
			return err
		}
		rec.ServeHits[seedKey(seed)] = combine(hits)
		// Jobs in chunks, so only a chunk's traces are resident at once.
		for lo := 0; lo < gridRecorded; lo += 20 {
			var runs []stems.RunSpec
			var per []int
			for i := lo; i < min(lo+20, gridRecorded); i++ {
				jr, err := jobRuns(gridJob(seed, i))
				if err != nil {
					return err
				}
				runs = append(runs, jr...)
				per = append(per, len(jr))
			}
			ds, err := localDigests(ctx, runs)
			if err != nil {
				return err
			}
			for _, n := range per {
				rec.ServeGrid[seedKey(seed)] = append(rec.ServeGrid[seedKey(seed)], combine(ds[:n]))
				ds = ds[n:]
			}
		}
	}
	out, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// localDigests runs specs through stems.Sweep on a shared arena and
// digests each result.
func localDigests(ctx context.Context, specs []stems.RunSpec) ([]string, error) {
	arena := stems.NewArena()
	grid := make([]*stems.Runner, len(specs))
	for i, s := range specs {
		r, err := stems.FromSpec(s, stems.WithSharedTrace(arena))
		if err != nil {
			return nil, err
		}
		grid[i] = r
	}
	res, err := stems.Sweep(ctx, grid)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(res))
	for i, r := range res {
		out[i] = resultDigest(r)
	}
	return out, nil
}
