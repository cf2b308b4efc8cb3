package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestBadInputExitsBeforeSimulating pins that paperfigs rejects invalid
// input with a one-line error and exit status 2, printing nothing to
// stdout. Each case once simulated (seed 0 and negative seeds replayed
// such traces, -accesses -5 fell back to the default lengths, -seeds 0
// meant 1) or printed Table 1 before noticing the unknown name. Most
// cases ask for one figure whose computation would succeed and print
// without the check, so an empty stdout shows the check ran first.
func TestBadInputExitsBeforeSimulating(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-seed", "0"}, "invalid seed 0"},
		{[]string{"-fig", "6", "-seed", "-4"}, "invalid seed -4"},
		{[]string{"-fig", "10", "-seeds", "0"}, "invalid seed count 0"},
		{[]string{"-fig", "workloads", "-accesses", "-5"}, "invalid access count -5"},
		{[]string{"-fig", "7", "-parallelism", "-1"}, "invalid parallelism -1"},
		{[]string{"-fig", "table1,bogus"}, `unknown figure "bogus"`},
		{[]string{"-fig", "all,bogus"}, `unknown figure "bogus"`},
		{[]string{"-fig", "hybrid", "-seed", "0"}, "invalid seed 0"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(tc.args, &stdout, &stderr)
		if code != 2 {
			t.Errorf("%v: exit status %d, want 2", tc.args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed %d bytes to stdout, want none", tc.args, stdout.Len())
		}
		if msg := stderr.String(); !strings.Contains(msg, tc.want) || strings.Count(msg, "\n") != 1 {
			t.Errorf("%v: stderr = %q, want one line naming %q", tc.args, msg, tc.want)
		}
	}
}
