// Seed-set equivalence at the public API: for every registered predictor
// and every workload of the paper's suite, Runner.RunSeeds must return,
// seed for seed, exactly the Results of sequential Runner.Run calls at
// those seeds.
package stems_test

import (
	"context"
	"testing"

	"stems"
)

func TestRunSeedsMatchesSequentialRuns(t *testing.T) {
	const accesses = 8_000
	seeds := []int64{1, 1 + stems.SeedStride}
	for _, workload := range stems.WorkloadNames() {
		for _, predictor := range stems.Predictors() {
			want := make([]stems.Result, len(seeds))
			for i, seed := range seeds {
				r, err := stems.New(
					stems.WithWorkload(workload),
					stems.WithPredictor(predictor),
					stems.WithSeed(seed),
					stems.WithAccesses(accesses),
				)
				if err != nil {
					t.Fatal(err)
				}
				want[i], err = r.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
			}

			r, err := stems.New(
				stems.WithWorkload(workload),
				stems.WithPredictor(predictor),
				stems.WithSeeds(seeds[0], len(seeds)),
				stems.WithAccesses(accesses),
			)
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.RunSeeds(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(seeds) {
				t.Fatalf("%s/%s: RunSeeds returned %d results, want %d", workload, predictor, len(got), len(seeds))
			}
			for i := range seeds {
				if got[i] != want[i] {
					t.Errorf("%s/%s seed %d: seed set diverged from sequential Run\n got: %+v\nwant: %+v",
						workload, predictor, seeds[i], got[i], want[i])
				}
			}
		}
	}
}

// TestRunSeedsExplicitList checks that a caller-supplied seed list
// overrides the configured progression and preserves list order, and
// that WithRunProgress sees one serialized, increasing count over the
// whole set (the callback appends without a lock, so -race catches an
// unserialized call).
func TestRunSeedsExplicitList(t *testing.T) {
	const accesses = 8_000
	var progress []uint64
	r, err := stems.New(stems.WithWorkload("em3d"), stems.WithAccesses(accesses),
		stems.WithRunProgress(func(done uint64) { progress = append(progress, done) }))
	if err != nil {
		t.Fatal(err)
	}
	seeds := []int64{42, 7}
	got, err := r.RunSeeds(context.Background(), seeds...)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k < len(progress); k++ {
		if progress[k] <= progress[k-1] {
			t.Fatalf("set progress not increasing: %d after %d", progress[k], progress[k-1])
		}
	}
	if len(progress) == 0 || progress[len(progress)-1] != uint64(len(seeds)*accesses) {
		t.Fatalf("set progress ended at %v, want %d", progress, len(seeds)*accesses)
	}
	for i, seed := range seeds {
		solo, err := stems.New(
			stems.WithWorkload("em3d"),
			stems.WithSeed(seed),
			stems.WithAccesses(accesses),
		)
		if err != nil {
			t.Fatal(err)
		}
		want, err := solo.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Errorf("seed %d (position %d) diverged from solo run", seed, i)
		}
	}
}

// TestSeedsProgression pins the WithSeeds seed derivation against
// Figure 10's documented progression.
func TestSeedsProgression(t *testing.T) {
	r, err := stems.New(stems.WithSeeds(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{3, 3 + stems.SeedStride, 3 + 2*stems.SeedStride, 3 + 3*stems.SeedStride}
	got := r.Seeds()
	if len(got) != len(want) {
		t.Fatalf("Seeds() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Seeds() = %v, want %v", got, want)
		}
	}
	// Without WithSeeds the set degenerates to the single configured seed.
	single, err := stems.New(stems.WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if s := single.Seeds(); len(s) != 1 || s[0] != 9 {
		t.Fatalf("Seeds() without WithSeeds = %v, want [9]", s)
	}
}

// TestRunSeedsValidation covers the rejection paths: non-positive seeds,
// invalid seed counts, and multi-seed sets over non-workload sources.
func TestRunSeedsValidation(t *testing.T) {
	if _, err := stems.New(stems.WithSeeds(0, 2)); err == nil {
		t.Error("WithSeeds(0, 2) accepted, want error (seeds are positive)")
	}
	if _, err := stems.New(stems.WithSeeds(1, 0)); err == nil {
		t.Error("WithSeeds(1, 0) accepted, want error (need at least one seed)")
	}
	r, err := stems.New(stems.WithWorkload("DB2"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunSeeds(context.Background(), 5, -1); err == nil {
		t.Error("RunSeeds with negative seed accepted, want error")
	}
	stream, err := stems.New(stems.WithBlockSourceFunc(stems.NewBlockTrace(nil).Blocks))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stream.RunSeeds(context.Background(), 1, 2); err == nil {
		t.Error("multi-seed RunSeeds over a block stream accepted, want error")
	}
}
