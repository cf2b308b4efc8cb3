package main

import (
	"encoding/json"
	"fmt"
	"time"

	"stems"
	"stems/internal/core"
	"stems/internal/enc"
	"stems/internal/sim"
	"stems/internal/stream"
	"stems/internal/trace"
	"stems/internal/workload"
)

// replayRun is one machine the replay steps: a kind and its effective
// options. Extra runs are stepped for their timings only.
type replayRun struct {
	label string
	kind  sim.Kind
	opt   sim.Options
	extra bool
}

// replayTrace is one generated trace and the runs stepped over it.
type replayTrace struct {
	workload string
	seed     int64
	n        int // 0 selects the workload's default length
	runs     []replayRun
}

// runFromSpec resolves a wire spec to the machine configuration FromSpec
// would run, so replay and daemon configure identical machines.
func runFromSpec(spec stems.RunSpec) (replayRun, error) {
	r, err := stems.FromSpec(spec)
	if err != nil {
		return replayRun{}, err
	}
	return replayRun{label: spec.Label, kind: sim.Kind(r.Predictor()), opt: r.Options()}, nil
}

// groupByTrace groups wire specs by the trace they replay — the
// (workload, seed, length) cell; the system is not part of it — into
// replay traces in first-appearance order. idx[t][k] is the index in
// specs of trace t's run k.
func groupByTrace(specs []stems.RunSpec) (traces []replayTrace, idx [][]int, err error) {
	at := make(map[string]int)
	for i, s := range specs {
		r, err := runFromSpec(s)
		if err != nil {
			return nil, nil, err
		}
		key := fmt.Sprintf("%s/%d/%d", s.Workload, s.Seed, s.Accesses)
		t, ok := at[key]
		if !ok {
			t = len(traces)
			at[key] = t
			traces = append(traces, replayTrace{workload: s.Workload, seed: s.Seed, n: s.Accesses})
			idx = append(idx, nil)
		}
		traces[t].runs = append(traces[t].runs, r)
		idx[t] = append(idx[t], i)
	}
	return traces, idx, nil
}

// withAllKinds adds an extra run for every built-in kind the trace does
// not step yet, configured like its first run, so every kind is timed.
func (t replayTrace) withAllKinds() replayTrace {
	have := make(map[sim.Kind]bool)
	for _, r := range t.runs {
		have[r.kind] = true
	}
	for _, k := range allKinds {
		if !have[sim.Kind(k)] {
			t.runs = append(t.runs, replayRun{label: "extra/" + k, kind: sim.Kind(k), opt: t.runs[0].opt, extra: true})
		}
	}
	return t
}

// kernelStats collects the replay's counts beside its spans.
type kernelStats struct {
	traceBytes, traceAccesses  int64
	reconWindows, reconEntries uint64
	consumed, fetched          uint64
	busy                       time.Duration // build+step+finish of non-extra runs
	wall                       time.Duration
}

// timedSTeMS wraps a STeMS prefetcher and times its two training
// callbacks. Name, OnAccess and ContributeResult are forwarded by
// embedding, so the machine's Result equals sim.Build's.
type timedSTeMS struct {
	*core.STeMS
	timed                  bool
	offNs, offN, evNs, evN int64
}

func (w *timedSTeMS) OnOffChipEvent(a trace.Access, covered bool) {
	if !w.timed {
		w.STeMS.OnOffChipEvent(a, covered)
		return
	}
	s := time.Now()
	w.STeMS.OnOffChipEvent(a, covered)
	w.offNs += int64(time.Since(s))
	w.offN++
}

func (w *timedSTeMS) OnL1Evict(block stems.Addr) {
	if !w.timed {
		w.STeMS.OnL1Evict(block)
		return
	}
	s := time.Now()
	w.STeMS.OnL1Evict(block)
	w.evNs += int64(time.Since(s))
	w.evN++
}

// buildTimedSTeMS assembles a STeMS machine the way sim.Build("stems")
// does — AttachEngine, then core.New — around the timing wrapper.
func buildTimedSTeMS(opt sim.Options, timed bool) (*sim.Machine, *timedSTeMS, *stream.Engine) {
	sc := opt.STeMS
	sc.Lookahead = opt.StreamLookahead(sc.Lookahead)
	m := sim.NewMachine(opt.System, sim.Nop{})
	eng := m.AttachEngine(stream.Config{
		Queues: sc.StreamQueues, Lookahead: sc.Lookahead, SVBEntries: sc.SVBEntries,
		Adaptive: opt.AdaptiveLookahead,
	})
	w := &timedSTeMS{STeMS: core.New(sc, eng), timed: timed}
	m.SetPrefetcher(w)
	return m, w, eng
}

// replay steps every run of every trace one machine at a time through
// the exported kernel calls, one span per call when tr is on:
// GenerateBlocks, a cursor-only drain, CollectMissStreamBlocks, then per
// run sim.Build, StepBlock per block, Finish, and enc.FromResult plus
// json.Marshal. With extras, each trace also gets the cursor-only drain,
// the cache-model pass, a `none` machine (the cache and timing floor)
// and a timed STeMS machine whose Result must equal the first STeMS
// run's. results[t][k] is the Result of traces[t].runs[k].
func replay(tr *tracer, job string, traces []replayTrace, ks *kernelStats, extras bool) ([][]sim.Result, error) {
	start := time.Now()
	root := tr.open("replay", -1, job)
	results := make([][]sim.Result, len(traces))
	for ti, t := range traces {
		spec, err := workload.ByName(t.workload)
		if err != nil {
			return nil, err
		}
		n := t.n
		if n == 0 {
			n = spec.DefaultAccesses
		}
		s := tr.now()
		bt := spec.GenerateBlocks(t.seed, n)
		tr.add("workload.generate", root, job, s, tr.since(s), int64(n), false)
		ks.traceBytes += int64(bt.MemBytes())
		ks.traceAccesses += int64(bt.Len())

		runs := t.runs
		if extras {
			s = tr.now()
			var b trace.Block
			for cur := bt.Blocks(); cur.NextBlock(&b); {
			}
			tr.add("trace.drain", root, job, s, tr.since(s), int64(n), false)

			s = tr.now()
			sim.CollectMissStreamBlocks(t.runs[0].opt.System, bt.Blocks(), nil, nil)
			tr.add("cache.collect", root, job, s, tr.since(s), int64(n), false)

			if !hasKind(runs, sim.KindNone) {
				runs = append(runs[:len(runs):len(runs)], replayRun{label: "extra/none", kind: sim.KindNone, opt: runs[0].opt, extra: true})
			}
		}
		results[ti] = make([]sim.Result, len(t.runs))
		firstSTeMS := -1
		for k, r := range runs {
			res, busy, err := stepRun(tr, root, job, bt, r)
			if err != nil {
				return nil, fmt.Errorf("%s/%s seed %d: %w", r.kind, t.workload, t.seed, err)
			}
			if k < len(t.runs) {
				results[ti][k] = res
				if r.kind == sim.KindSTeMS && firstSTeMS < 0 {
					firstSTeMS = k
				}
			}
			if !r.extra {
				ks.busy += busy
			}
		}
		if extras && firstSTeMS >= 0 {
			if err := replayTimedSTeMS(tr, root, job, bt, t.runs[firstSTeMS].opt, results[ti][firstSTeMS], ks); err != nil {
				return nil, fmt.Errorf("%s seed %d: %w", t.workload, t.seed, err)
			}
		}
	}
	tr.close(root, int64(len(traces)))
	ks.wall += time.Since(start)
	return results, nil
}

func hasKind(runs []replayRun, k sim.Kind) bool {
	for _, r := range runs {
		if r.kind == k {
			return true
		}
	}
	return false
}

// stepRun replays one machine over bt and returns its Result and the
// time spent in Build, StepBlock and Finish.
func stepRun(tr *tracer, parent int, job string, bt *trace.BlockTrace, r replayRun) (sim.Result, time.Duration, error) {
	kind := string(r.kind)
	t0 := time.Now()
	s := tr.now()
	m, err := sim.Build(r.kind, r.opt)
	if err != nil {
		return sim.Result{}, 0, err
	}
	tr.add("sim.build/"+kind, parent, job, s, tr.since(s), 1, false)
	var b trace.Block
	for cur := bt.Blocks(); cur.NextBlock(&b); {
		s = tr.now()
		m.StepBlock(&b)
		tr.add("sim.step/"+kind, parent, job, s, tr.since(s), int64(b.N), false)
	}
	s = tr.now()
	res := m.Finish()
	tr.add("sim.finish/"+kind, parent, job, s, tr.since(s), 1, false)
	busy := time.Since(t0)

	s = tr.now()
	if _, err := json.Marshal(enc.FromResult(r.label, res)); err != nil {
		return res, busy, err
	}
	tr.add("enc.encode", parent, job, s, tr.since(s), 1, false)
	return res, busy, nil
}

// replayTimedSTeMS replays bt through the wrapped STeMS machine and
// records its callback timings as aggregate spans.
func replayTimedSTeMS(tr *tracer, parent int, job string, bt *trace.BlockTrace, opt sim.Options, want sim.Result, ks *kernelStats) error {
	id := tr.open("core.replay", parent, job)
	m, w, eng := buildTimedSTeMS(opt, tr.enabled())
	var b trace.Block
	for cur := bt.Blocks(); cur.NextBlock(&b); {
		m.StepBlock(&b)
	}
	got := m.Finish()
	tr.close(id, int64(bt.Len()))
	if resultDigest(got) != resultDigest(want) {
		return fmt.Errorf("core.New-assembled STeMS result %v differs from sim.Build's %v", got, want)
	}
	tr.add("core.offchip", id, job, time.Time{}, time.Duration(w.offNs), w.offN, true)
	tr.add("core.evict", id, job, time.Time{}, time.Duration(w.evNs), w.evN, true)
	rs := w.ReconStats()
	ks.reconWindows += rs.Windows
	ks.reconEntries += rs.Entries
	es := eng.Stats()
	ks.consumed += es.Consumed
	ks.fetched += es.Fetched
	return nil
}
