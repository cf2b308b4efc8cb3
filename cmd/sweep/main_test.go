package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"testing"

	"stems"
	"stems/internal/server"
	"stems/internal/service"
)

// TestGridNDJSONMatchesLocal pins that `sweep -grid URL -json` emits
// byte-identical NDJSON to the local `-json` path for the same sweep:
// same records, same field bytes, same (sweep) order.
func TestGridNDJSONMatchesLocal(t *testing.T) {
	points := []stems.Value{stems.IntValue(2), stems.IntValue(4), stems.IntValue(8)}
	labels := []string{"2", "4", "8"}
	fixed := map[string]stems.Value{"scientific": stems.BoolValue(false)}

	// Local path: the runners cmd/sweep builds, encoded in sweep order.
	arena := stems.NewArena()
	runners := make([]*stems.Runner, len(points))
	for i, v := range points {
		r, err := stems.FromSpec(stems.Spec{
			Predictor: "stems", Workload: "em3d", Seed: 1, Accesses: 10_000,
			Label: labels[i],
			Knobs: map[string]stems.Value{
				"scientific":      stems.BoolValue(false),
				"stems.lookahead": v,
			},
		}, stems.WithSharedTrace(arena))
		if err != nil {
			t.Fatal(err)
		}
		runners[i] = r
	}
	results, err := stems.Sweep(context.Background(), runners)
	if err != nil {
		t.Fatal(err)
	}
	var local bytes.Buffer
	encoder := json.NewEncoder(&local)
	for i, res := range results {
		if err := encoder.Encode(stems.EncodeResult(labels[i], res)); err != nil {
			t.Fatal(err)
		}
	}

	// Grid path: the same sweep submitted as one server-side grid job.
	svc, err := service.New(service.Config{Workers: 2, QueueBound: 8})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(svc))
	t.Cleanup(func() {
		svc.Drain()
		ts.Close()
	})
	spec := gridSpec("stems", "em3d", 1, 10_000, fixed, "stems.lookahead", points)
	var remote bytes.Buffer
	if err := runGrid(context.Background(), stems.NewClient(ts.URL, nil), spec, "lookahead", true, &remote); err != nil {
		t.Fatal(err)
	}

	if local.Len() == 0 {
		t.Fatal("local path produced no records")
	}
	if !bytes.Equal(local.Bytes(), remote.Bytes()) {
		t.Errorf("grid NDJSON differs from local path\nlocal:\n%s\ngrid:\n%s", local.String(), remote.String())
	}
}

// TestGridTable pins the non-JSON grid rendering: one row per point,
// labeled with the canonical axis value.
func TestGridTable(t *testing.T) {
	svc, err := service.New(service.Config{Workers: 2, QueueBound: 8})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(svc))
	t.Cleanup(func() {
		svc.Drain()
		ts.Close()
	})
	spec := gridSpec("stems", "em3d", 1, 10_000, nil, "stems.pst_entries",
		[]stems.Value{stems.IntValue(1024), stems.IntValue(4096)})
	var out bytes.Buffer
	if err := runGrid(context.Background(), stems.NewClient(ts.URL, nil), spec, "pst", false, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"stems stems.pst_entries sweep on em3d", "pst", "covered", "\n1024", "\n4096"} {
		if !strings.Contains(got, want) {
			t.Errorf("table output missing %q:\n%s", want, got)
		}
	}
}

// TestSeedZeroRejected re-executes the test binary into main with
// -seed 0. The wire Spec reads seed 0 as "the default, 1", so without
// its own check the sweep would quietly replay seed 1; it must exit 2
// with the Runner's invalid-seed error before either path runs.
func TestSeedZeroRejected(t *testing.T) {
	if os.Getenv("SWEEP_HELPER_MAIN") == "1" {
		os.Args = []string{"sweep", "-seed", "0", "-accesses", "1000"}
		main()
		os.Exit(0)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestSeedZeroRejected$")
	cmd.Env = append(os.Environ(), "SWEEP_HELPER_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("sweep -seed 0: err = %v, want exit status 2 (stderr: %q)", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "invalid seed 0") {
		t.Errorf("stderr = %q, want the Runner's invalid-seed error", stderr.String())
	}
}
