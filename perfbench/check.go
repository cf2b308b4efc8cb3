package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"

	"stems"
	"stems/internal/sim"
)

// The output check compares simulated statistics, never wire bytes: a
// run's digest covers the sim.Result counters listed here, so adding a
// field to the result document (or to sim.Result) leaves it unchanged.
func resultDigest(r sim.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d",
		r.Prefetcher, r.Accesses, r.Reads, r.Writes, r.L1Hits, r.L2Hits,
		r.OffChipReads, r.Covered, r.Overpredicted, r.Fetched, r.MetaTransfers,
		r.ReconPlacedExact, r.ReconPlacedNear, r.ReconDropped, r.Cycles)
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// wireDigest digests a daemon result through its engine form.
func wireDigest(r stems.RunResult) string { return resultDigest(r.Engine()) }

// combine digests an ordered list of digests into one.
func combine(ds []string) string {
	h := sha256.New()
	for _, d := range ds {
		h.Write([]byte(d))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// recorded holds the digests taken at the commit that introduced the
// benchmark, for the default seed and one held-out seed: per sweep
// cell, per serve-grid job (the first jobs of the seeded sequence), and
// one combined digest over the serve-hits key set.
type recorded struct {
	Sweep     map[string][]string `json:"sweep"`
	ServeHits map[string]string   `json:"serve-hits"`
	ServeGrid map[string][]string `json:"serve-grid"`
}

//go:embed digests.json
var digestsJSON []byte

func loadRecorded() (recorded, error) {
	var r recorded
	if err := json.Unmarshal(digestsJSON, &r); err != nil {
		return r, fmt.Errorf("parsing digests.json: %w", err)
	}
	return r, nil
}

// compareDigests reports the first index where got differs from want;
// want may be shorter than got (only its prefix is checked).
func compareDigests(what string, got, want []string) error {
	for i := range want {
		if i >= len(got) {
			break
		}
		if got[i] != want[i] {
			return fmt.Errorf("%s %d: digest %s, recorded %s", what, i, got[i], want[i])
		}
	}
	return nil
}

func seedKey(seed int64) string { return strconv.FormatInt(seed, 10) }
