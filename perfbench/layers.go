package main

import (
	"math"
	"time"

	"stems"
	"stems/internal/enc"
)

// kernelMetrics derives the kernel layers' metrics from a traced replay:
// per-access host time of generation, the cursor, the cache model and
// each machine kind's StepBlock; per-call time of Build, encoding and
// the STeMS callbacks; and the simulated counts beside them.
func kernelMetrics(o *outcome, tr *tracer, ks *kernelStats) {
	tot := tr.totals()
	perN := func(name string) float64 {
		t := tot[name]
		if t == nil || t.N == 0 {
			return math.NaN()
		}
		return float64(t.Dur) / float64(t.N)
	}
	perCall := func(name string, unit time.Duration) float64 {
		t := tot[name]
		if t == nil || t.Count == 0 {
			return math.NaN()
		}
		return float64(t.Dur) / float64(t.Count) / float64(unit)
	}
	o.metrics["workload.gen_ns_per_access"] = perN("workload.generate")
	o.metrics["trace.cursor_ns_per_access"] = perN("trace.drain")
	o.metrics["trace.bytes_per_access"] = ratio(float64(ks.traceBytes), float64(ks.traceAccesses))
	o.metrics["cache.ns_per_access"] = perN("cache.collect") - perN("trace.drain")
	for _, k := range allKinds {
		o.metrics["sim.build_ms."+k] = perCall("sim.build/"+k, time.Millisecond)
		o.metrics["sim.step_ns_per_access."+k] = perN("sim.step/" + k)
	}
	o.metrics["core.offchip_ns"] = perN("core.offchip")
	o.metrics["core.evict_ns"] = perN("core.evict")
	o.metrics["core.recon_windows"] = float64(ks.reconWindows)
	o.metrics["core.recon_entries_per_window"] = ratio(float64(ks.reconEntries), float64(ks.reconWindows))
	o.metrics["stream.useful_ratio"] = ratio(float64(ks.consumed), float64(ks.fetched))
	o.metrics["enc.encode_us"] = perCall("enc.encode", time.Microsecond)
}

// serveMetrics derives the service layers' metrics. Each statistic comes
// from the timed window when the window exercised that layer, and
// otherwise from the run's untimed set-up and check jobs, so every layer
// is measured on the workload's own runs.
func serveMetrics(o *outcome, so *serveObs, tr *tracer) {
	all := append(append([]jobRec(nil), so.window...), so.other...)
	pick := func(f func(r *jobRec) (time.Duration, bool)) []float64 {
		for _, recs := range [][]jobRec{so.window, all} {
			var out []float64
			for i := range recs {
				if d, ok := f(&recs[i]); ok {
					out = append(out, ms(d))
				}
			}
			if len(out) > 0 {
				return out
			}
		}
		return nil
	}
	ok := func(r *jobRec) bool { return r.err == nil && !r.scrape }
	setP50 := func(name string, xs []float64) {
		if len(xs) == 0 {
			o.metrics[name] = math.NaN()
			return
		}
		o.metrics[name] = median(xs)
	}

	submit := pick(func(r *jobRec) (time.Duration, bool) { return r.submit, ok(r) })
	setP50("server.submit_ms.p50", submit)
	o.metrics["server.submit_ms.p99"] = percentile(submit, 0.99)
	setP50("server.delivery_ms.p50", pick(func(r *jobRec) (time.Duration, bool) {
		d := r.done - r.sent - r.submit
		for _, p := range r.phases {
			d -= p
		}
		return d, ok(r)
	}))
	setP50("server.scrape_ms.p50", pick(func(r *jobRec) (time.Duration, bool) { return r.submit, r.scrape && r.err == nil }))
	setP50("enc.decode_ms.p50", pick(func(r *jobRec) (time.Duration, bool) { return r.decode, ok(r) }))
	queue := pick(func(r *jobRec) (time.Duration, bool) {
		return r.phases[enc.PhaseQueue], ok(r) && r.phaseCounts[enc.PhaseQueue] > 0
	})
	setP50("service.queue_ms.p50", queue)
	o.metrics["service.queue_ms.p99"] = percentile(queue, 0.99)
	for _, ph := range []int{enc.PhaseResolve, enc.PhaseSimulate, enc.PhaseStore, enc.PhaseEncode} {
		setP50("service."+enc.PhaseNames[ph]+"_ms.p50", pick(func(r *jobRec) (time.Duration, bool) {
			return r.phases[ph], ok(r) && r.phaseCounts[ph] > 0
		}))
	}
	if _, ok := o.metrics["loadgen.lag_ms.p99"]; !ok {
		o.metrics["loadgen.lag_ms.p99"] = percentile(pick(func(r *jobRec) (time.Duration, bool) { return r.lag, true }), 0.99)
	}

	var busy time.Duration
	for _, r := range so.window {
		busy += r.phases[enc.PhaseResolve] + r.phases[enc.PhaseSimulate] + r.phases[enc.PhaseEncode] + r.phases[enc.PhaseStore]
	}
	if _, ok := o.metrics["stems.sweep_busy_frac"]; !ok && so.windowWall > 0 {
		o.metrics["stems.sweep_busy_frac"] = busy.Seconds() / (float64(so.nproc) * so.windowWall.Seconds())
	}
	if _, ok := o.metrics["bench.unattributed_frac"]; !ok {
		// Client time outside the submit, wait and decode calls.
		if t := tr.totals()["job"]; t != nil && t.Dur > 0 {
			o.metrics["bench.unattributed_frac"] = float64(t.Self) / float64(t.Dur)
		}
	}

	// Counter deltas: the window's when its denominator moved, else the
	// sum over every session.
	delta := func(num, den func(a, b *stems.ServiceMetrics) float64) float64 {
		for _, windowOnly := range []bool{true, false} {
			var n, d float64
			for i := range so.sessions {
				s := &so.sessions[i]
				if windowOnly && !s.window {
					continue
				}
				n += num(&s.before, &s.after)
				d += den(&s.before, &s.after)
			}
			if d > 0 {
				return n / d
			}
		}
		return 0
	}
	diff := func(f func(m *stems.ServiceMetrics) uint64) func(a, b *stems.ServiceMetrics) float64 {
		return func(a, b *stems.ServiceMetrics) float64 { return float64(f(b)) - float64(f(a)) }
	}
	store := func(f func(s *stems.StoreMetrics) uint64) func(m *stems.ServiceMetrics) uint64 {
		return func(m *stems.ServiceMetrics) uint64 {
			if m.Store == nil {
				return 0
			}
			return f(m.Store)
		}
	}
	hits := diff(func(m *stems.ServiceMetrics) uint64 { return m.CacheHits })
	lookups := func(a, b *stems.ServiceMetrics) float64 {
		return hits(a, b) + diff(func(m *stems.ServiceMetrics) uint64 { return m.CacheMisses })(a, b)
	}
	storeHits := diff(store(func(s *stems.StoreMetrics) uint64 { return s.Hits }))
	o.metrics["service.cache_hit_ratio"] = delta(hits, lookups)
	o.metrics["service.memory_hit_frac"] = delta(func(a, b *stems.ServiceMetrics) float64 { return hits(a, b) - storeHits(a, b) }, lookups)
	computed := diff(func(m *stems.ServiceMetrics) uint64 { return m.RunsComputed })
	o.metrics["service.runs_folded_frac"] = delta(diff(func(m *stems.ServiceMetrics) uint64 { return m.Lockstep.RunsFolded }), computed)
	o.metrics["service.traces_saved"] = delta(diff(func(m *stems.ServiceMetrics) uint64 { return m.Lockstep.TracesSaved }), computed)
	o.metrics["store.hit_ratio"] = delta(storeHits, func(a, b *stems.ServiceMetrics) float64 {
		return storeHits(a, b) + diff(store(func(s *stems.StoreMetrics) uint64 { return s.Misses }))(a, b)
	})
	if _, ok := o.metrics["trace.arena_hit_ratio"]; !ok {
		th := diff(func(m *stems.ServiceMetrics) uint64 { return uint64(m.TraceHits) })
		o.metrics["trace.arena_hit_ratio"] = delta(th, func(a, b *stems.ServiceMetrics) float64 {
			return th(a, b) + diff(func(m *stems.ServiceMetrics) uint64 { return uint64(m.TraceGenerations) })(a, b)
		})
	}
	o.metrics["store.read_ms.mean"] = storeMean(so, func(s *stems.StoreMetrics) *stems.LatencyStats { return s.ReadLatency })
	o.metrics["store.write_ms.mean"] = storeMean(so, func(s *stems.StoreMetrics) *stems.LatencyStats { return s.WriteLatency })
}

// storeMean is the mean store latency the daemon reported, from the
// window's daemon when it did that operation, else from the last daemon
// that did. The daemon's own p50 is a power-of-two bucket bound, which
// repeats exactly between runs, so the mean is reported instead.
func storeMean(so *serveObs, f func(*stems.StoreMetrics) *stems.LatencyStats) float64 {
	for _, windowOnly := range []bool{true, false} {
		for i := len(so.sessions) - 1; i >= 0; i-- {
			s := so.sessions[i]
			if windowOnly && !s.window || s.after.Store == nil {
				continue
			}
			if l := f(s.after.Store); l != nil && l.Count > 0 {
				return l.MeanUs / 1e3
			}
		}
	}
	return math.NaN()
}
