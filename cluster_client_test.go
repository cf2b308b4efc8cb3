// In-process cluster tests: three real stemsd stacks (service + HTTP
// server) behind httptest listeners, driven through the shard-routed
// ClusterClient. These are the tentpole acceptance checks — a routed
// sweep beats one daemon, every byte identical to direct Run — plus the
// retry/backoff and owner-down failover discipline.
package stems_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"stems"
	"stems/internal/enc"
	"stems/internal/server"
	"stems/internal/service"
)

// startDaemon boots one full stemsd stack on a loopback listener.
func startDaemon(t *testing.T, cfg service.Config) (*service.Service, *httptest.Server) {
	t.Helper()
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(svc))
	t.Cleanup(func() {
		ts.Close()
		svc.Abort()
		svc.Drain()
	})
	return svc, ts
}

// fastRetry keeps test-time backoff negligible.
func fastRetry() *stems.ClusterConfig {
	return &stems.ClusterConfig{
		AttemptsPerPeer: 3,
		RetryBase:       time.Millisecond,
		RetryMax:        5 * time.Millisecond,
	}
}

// balancedSpecs picks per-owner-balanced specs: runsPerPeer specs owned
// by each cluster peer, drawn from distinct-seed candidates. Ownership
// depends on the daemons' (dynamic) URLs, so balance is arranged here
// rather than assumed — making the cluster-vs-single timing comparison
// deterministic instead of hostage to hash luck.
func balancedSpecs(t *testing.T, cc *stems.ClusterClient, accesses, runsPerPeer int) []stems.Spec {
	t.Helper()
	want := make(map[string]int, len(cc.Peers()))
	for _, p := range cc.Peers() {
		want[p] = runsPerPeer
	}
	var out []stems.Spec
	for seed := int64(1); seed <= 200 && len(out) < runsPerPeer*len(cc.Peers()); seed++ {
		spec := stems.Spec{Predictor: "stems", Workload: "em3d", Seed: seed, Accesses: accesses}
		owner, err := cc.Owner(spec)
		if err != nil {
			t.Fatal(err)
		}
		if want[owner] > 0 {
			want[owner]--
			out = append(out, spec)
		}
	}
	if len(out) != runsPerPeer*len(cc.Peers()) {
		t.Fatalf("could not balance %d runs over %d peers from 200 candidate seeds", runsPerPeer*len(cc.Peers()), len(cc.Peers()))
	}
	return out
}

// TestClusterSweepFasterAndByteIdentical is the tentpole acceptance
// test: a sweep routed across a 3-daemon cluster (one worker each) must
// finish faster than the same sweep against a single one-worker daemon,
// and every result must be byte-identical to a direct in-process Run.
func TestClusterSweepFasterAndByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison with real simulation work")
	}
	const (
		runsPerPeer = 3
		accesses    = 120_000
	)

	// Three single-worker daemons; peer URLs are the shard map.
	var urls []string
	for i := 0; i < 3; i++ {
		_, ts := startDaemon(t, service.Config{Workers: 1, QueueBound: 32})
		urls = append(urls, ts.URL)
	}
	cc, err := stems.NewClusterClient(urls, fastRetry())
	if err != nil {
		t.Fatal(err)
	}
	specs := balancedSpecs(t, cc, accesses, runsPerPeer)

	ctx := context.Background()
	clusterStart := time.Now()
	clusterResults, err := cc.Sweep(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	clusterTime := time.Since(clusterStart)

	// The same sweep against one fresh single-worker daemon.
	_, single := startDaemon(t, service.Config{Workers: 1, QueueBound: 32})
	sc := stems.NewClient(single.URL, nil)
	job := stems.JobSpec{Runs: append([]stems.RunSpec(nil), specs...)}
	singleStart := time.Now()
	st, err := sc.Submit(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	if st, err = sc.Wait(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	singleTime := time.Since(singleStart)
	if st.State != stems.JobDone {
		t.Fatalf("single-daemon sweep ended %s: %s", st.State, st.Error)
	}
	singleResults, err := st.DecodedResults()
	if err != nil {
		t.Fatal(err)
	}

	// Byte identity, three ways: cluster vs single daemon vs direct Run.
	for i, spec := range specs {
		runner, err := stems.FromSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := runner.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		wantBytes, err := json.Marshal(stems.EncodeResult("", direct))
		if err != nil {
			t.Fatal(err)
		}
		gotCluster, err := json.Marshal(clusterResults[i])
		if err != nil {
			t.Fatal(err)
		}
		gotSingle, err := json.Marshal(singleResults[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotCluster, wantBytes) {
			t.Fatalf("run %d (seed %d): cluster result differs from direct Run:\ncluster=%s\n direct=%s",
				i, spec.Seed, gotCluster, wantBytes)
		}
		if !bytes.Equal(gotSingle, wantBytes) {
			t.Fatalf("run %d (seed %d): single-daemon result differs from direct Run", i, spec.Seed)
		}
	}

	// Three daemons at one worker each vs one daemon at one worker: the
	// cluster holds a 3x parallelism edge over perfectly balanced shards
	// (arranged by balancedSpecs), so with real cores behind the workers
	// "faster" should never be close. On a host without enough CPUs the
	// three daemons time-slice one core and the comparison measures the
	// scheduler, not the cluster — assert only where it is meaningful.
	t.Logf("cluster (3 daemons): %v; single daemon: %v", clusterTime, singleTime)
	if runtime.NumCPU() >= 3 {
		if clusterTime >= singleTime {
			t.Fatalf("cluster sweep (%v) not faster than single daemon (%v)", clusterTime, singleTime)
		}
	} else {
		t.Logf("only %d CPU(s): skipping the faster-than-single assertion (no parallel hardware)", runtime.NumCPU())
	}

	// Routing observability: every peer must have been asked for work.
	for _, ps := range cc.Stats().Peers {
		if ps.RunsRouted != runsPerPeer {
			t.Fatalf("peer %s routed %d runs, want %d", ps.URL, ps.RunsRouted, runsPerPeer)
		}
		if ps.JobsServed == 0 {
			t.Fatalf("peer %s served no jobs", ps.URL)
		}
		if ps.Failovers != 0 {
			t.Fatalf("peer %s recorded %d failovers with all peers healthy", ps.URL, ps.Failovers)
		}
	}
}

// TestClusterSweepFoldsPerPeer: a routed sweep whose per-peer groups
// share a trace arrives at each peer as one multi-run job, computes
// exactly that peer's runs there — observable in every peer's /metrics —
// and stays byte-identical to direct in-process runs. Ownership is per
// run content address, so the test searches for trace cells whose
// predictor variants co-locate rather than assuming they do.
func TestClusterSweepFoldsPerPeer(t *testing.T) {
	const accesses = 10_000
	preds := []string{"stride", "sms", "tms", "stems"}

	var (
		urls []string
		svcs []*service.Service
	)
	for i := 0; i < 3; i++ {
		svc, ts := startDaemon(t, service.Config{Workers: 1, QueueBound: 32})
		urls = append(urls, ts.URL)
		svcs = append(svcs, svc)
	}
	cc, err := stems.NewClusterClient(urls, fastRetry())
	if err != nil {
		t.Fatal(err)
	}

	// For each peer, find a seed where at least two predictor variants of
	// the em3d trace are owned by that peer: those runs arrive in one job.
	svcByURL := map[string]*service.Service{}
	for i, u := range urls {
		svcByURL[u] = svcs[i]
	}
	groupSize := map[string]int{}
	var specs []stems.Spec
	for _, peer := range cc.Peers() {
		found := false
		for seed := int64(1); seed <= 500 && !found; seed++ {
			var owned []stems.Spec
			for _, pred := range preds {
				spec := stems.Spec{Predictor: pred, Workload: "em3d", Seed: seed, Accesses: accesses}
				owner, err := cc.Owner(spec)
				if err != nil {
					t.Fatal(err)
				}
				if owner == peer {
					owned = append(owned, spec)
				}
			}
			if len(owned) >= 2 {
				specs = append(specs, owned...)
				groupSize[peer] = len(owned)
				found = true
			}
		}
		if !found {
			t.Fatalf("no seed in 1..500 co-locates two predictors on peer %s", peer)
		}
	}

	results, err := cc.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}

	// Byte identity: every routed result equals a direct in-process run.
	for i, spec := range specs {
		runner, err := stems.FromSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := runner.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(stems.EncodeResult("", direct))
		got, _ := json.Marshal(results[i])
		if !bytes.Equal(got, want) {
			t.Fatalf("run %d (%s seed %d): routed result differs from direct run:\n got=%s\nwant=%s",
				i, spec.Predictor, spec.Seed, got, want)
		}
	}

	// Every peer computed exactly its own group, and /metrics from each
	// peer agrees with the in-process service view.
	wire, err := cc.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, peer := range cc.Peers() {
		want := uint64(groupSize[peer])
		if got := svcByURL[peer].Metrics().RunsComputed; got != want {
			t.Errorf("peer %s computed %d runs, want %d", peer, got, want)
		}
		if wire[i].RunsComputed != want {
			t.Errorf("peer %s: /metrics runs_computed = %d, want %d", peer, wire[i].RunsComputed, want)
		}
	}
}

// TestClusterFailover kills a run's owner and requires the cluster
// client to serve it from the next-ranked peer — correct because the
// result is a content-addressed deterministic computation.
func TestClusterFailover(t *testing.T) {
	var urls []string
	var servers []*httptest.Server
	for i := 0; i < 3; i++ {
		_, ts := startDaemon(t, service.Config{Workers: 1, QueueBound: 8})
		urls = append(urls, ts.URL)
		servers = append(servers, ts)
	}
	cc, err := stems.NewClusterClient(urls, fastRetry())
	if err != nil {
		t.Fatal(err)
	}

	// Find a spec owned by peer 0, then take peer 0 down.
	var spec stems.Spec
	for seed := int64(1); ; seed++ {
		if seed > 200 {
			t.Fatal("no candidate spec owned by peer 0")
		}
		spec = stems.Spec{Predictor: "stems", Workload: "em3d", Seed: seed, Accesses: 5_000}
		owner, err := cc.Owner(spec)
		if err != nil {
			t.Fatal(err)
		}
		if owner == urls[0] {
			break
		}
	}
	servers[0].Close()

	res, err := cc.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("Run with downed owner: %v", err)
	}

	// The survivor's bytes must equal a direct run's.
	runner, err := stems.FromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := runner.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(stems.EncodeResult("", direct))
	got, _ := json.Marshal(res)
	if !bytes.Equal(got, want) {
		t.Fatalf("failover result differs from direct run:\n got=%s\nwant=%s", got, want)
	}

	st := cc.Stats()
	var failovers, served uint64
	for _, ps := range st.Peers {
		failovers += ps.Failovers
		if ps.URL != urls[0] {
			served += ps.JobsServed
		}
	}
	if failovers == 0 {
		t.Fatalf("no failover recorded: %+v", st.Peers)
	}
	if served != 1 {
		t.Fatalf("surviving peers served %d jobs, want 1: %+v", served, st.Peers)
	}
}

// TestClusterRetryBackoff fronts a healthy daemon with a flaky proxy
// that 503s the first two submissions; the client must retry with
// backoff on the same peer and succeed on the third attempt.
func TestClusterRetryBackoff(t *testing.T) {
	_, real := startDaemon(t, service.Config{Workers: 1, QueueBound: 8})

	var submits atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && submits.Add(1) <= 2 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(enc.ErrorBody{ //nolint:errcheck
				Error: enc.ErrorDetail{Code: "queue_full", Message: "synthetic flake"},
			})
			return
		}
		// Forward everything else (and the third submit) to the real
		// daemon by rewriting the host.
		proxyReq, err := http.NewRequestWithContext(r.Context(), r.Method, real.URL+r.URL.Path, r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		proxyReq.Header = r.Header
		resp, err := http.DefaultTransport.RoundTrip(proxyReq)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		for k, vs := range resp.Header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			if n > 0 {
				w.Write(buf[:n]) //nolint:errcheck
				if f, ok := w.(http.Flusher); ok {
					f.Flush()
				}
			}
			if err != nil {
				return
			}
		}
	}))
	defer flaky.Close()

	cc, err := stems.NewClusterClient([]string{flaky.URL}, fastRetry())
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := cc.Run(context.Background(), stems.Spec{Predictor: "stems", Workload: "em3d", Accesses: 5_000}); err != nil {
		t.Fatalf("Run through flaky front: %v", err)
	}
	if submits.Load() != 3 {
		t.Fatalf("daemon saw %d submits, want 3 (two 503s + success)", submits.Load())
	}
	ps := cc.Stats().Peers[0]
	if ps.Retries != 2 {
		t.Fatalf("Retries = %d, want 2", ps.Retries)
	}
	// Two backoffs at >=1ms each must have elapsed.
	if elapsed := time.Since(start); elapsed < 2*time.Millisecond {
		t.Fatalf("suspiciously fast retry loop (%v): backoff not applied", elapsed)
	}
}

// TestClusterRejectsPermanentErrors: a structured 4xx must surface
// immediately, not burn retries or fail over.
func TestClusterRejectsPermanentErrors(t *testing.T) {
	_, ts := startDaemon(t, service.Config{Workers: 1, QueueBound: 8})
	cc, err := stems.NewClusterClient([]string{ts.URL}, fastRetry())
	if err != nil {
		t.Fatal(err)
	}
	_, err = cc.Run(context.Background(), stems.Spec{Predictor: "stems", Workload: "no-such-workload"})
	if err == nil {
		t.Fatal("invalid spec accepted")
	}
	if ps := cc.Stats().Peers[0]; ps.Retries != 0 {
		t.Fatalf("client retried a permanent error %d times", ps.Retries)
	}
}

// TestClusterPeerLatencyStats: every attempt a peer serves lands in that
// peer's latency histogram, surfaced as a mergeable snapshot in Stats.
func TestClusterPeerLatencyStats(t *testing.T) {
	_, ts1 := startDaemon(t, service.Config{Workers: 1, QueueBound: 8})
	_, ts2 := startDaemon(t, service.Config{Workers: 1, QueueBound: 8})
	cc, err := stems.NewClusterClient([]string{ts1.URL, ts2.URL}, fastRetry())
	if err != nil {
		t.Fatal(err)
	}
	specs := balancedSpecs(t, cc, 10_000, 1)
	if _, err := cc.Sweep(context.Background(), specs); err != nil {
		t.Fatal(err)
	}

	var merged stems.LatencySnapshot
	for _, p := range cc.Stats().Peers {
		if p.JobsServed == 0 {
			continue
		}
		if p.Latency.Count == 0 {
			t.Errorf("peer %s served %d jobs but recorded no attempt latency", p.URL, p.JobsServed)
		}
		if p.Latency.Mean() <= 0 {
			t.Errorf("peer %s latency mean = %v, want > 0", p.URL, p.Latency.Mean())
		}
		merged.Merge(p.Latency)
	}
	// One job per peer: the merged view counts both attempts.
	if merged.Count != 2 {
		t.Errorf("merged latency count = %d, want 2", merged.Count)
	}
}
