package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// clock is the load generator's time source: offsets from the start of
// a phase. Tests substitute a virtual clock.
type clock interface {
	now() time.Duration
	sleepUntil(ctx context.Context, t time.Duration) error
}

// wallClock measures from t0.
type wallClock struct{ t0 time.Time }

func (c wallClock) now() time.Duration { return time.Since(c.t0) }

func (c wallClock) sleepUntil(ctx context.Context, t time.Duration) error {
	d := t - c.now()
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// openLoop sends each arrival when it is due, from at most workers
// goroutines: a worker takes the next arrival, sleeps until its due time
// and runs it. When every worker is busy, the next arrival goes out late;
// its latency still runs from the due time, so a stall is charged to
// every job it delays, and the lateness is recorded as generator lag.
// Each job must finish within deadline of its due time.
func openLoop(ctx context.Context, clk clock, arrivals []arrival, workers int, deadline time.Duration, do func(context.Context, arrival) jobRec) []jobRec {
	recs := make([]jobRec, len(arrivals))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(arrivals) {
					return
				}
				a := arrivals[i]
				if err := clk.sleepUntil(ctx, a.due); err != nil {
					recs[i] = jobRec{due: a.due, err: err}
					continue
				}
				sent := clk.now()
				jctx, cancel := context.WithTimeout(ctx, a.due+deadline-sent)
				rec := do(jctx, a)
				cancel()
				rec.due, rec.sent, rec.done = a.due, sent, clk.now()
				rec.lag = sent - a.due
				recs[i] = rec
			}
		}()
	}
	wg.Wait()
	return recs
}

// closedLoop runs workers clients that each send their next job as soon
// as the previous one returns, until next reports no more jobs or the
// clock passes until; a job already sent is always completed. Latency
// runs from the send; lag is the gap between a client's previous reply
// and its next send.
func closedLoop(ctx context.Context, clk clock, workers int, until, deadline time.Duration, next func() (int, bool), do func(context.Context, int) jobRec) []jobRec {
	var mu sync.Mutex
	var recs []jobRec
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := clk.now()
			for ctx.Err() == nil && clk.now() < until {
				i, ok := next()
				if !ok {
					return
				}
				sent := clk.now()
				jctx, cancel := context.WithTimeout(ctx, deadline)
				rec := do(jctx, i)
				cancel()
				rec.due, rec.sent, rec.done = sent, sent, clk.now()
				rec.lag = sent - prev
				prev = rec.done
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return recs
}

// counter hands out indices 0, 1, 2, ... up to n (n < 0: unbounded).
func counter(n int) func() (int, bool) {
	var c atomic.Int64
	return func() (int, bool) {
		i := int(c.Add(1) - 1)
		return i, n < 0 || i < n
	}
}
