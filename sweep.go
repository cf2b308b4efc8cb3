package stems

import (
	"context"
	"fmt"
	"sync"

	"stems/internal/par"
)

// Progress observes sweep completion: completed runs so far, the grid
// size, the finished run's label, and its result. Calls are serialized
// but arrive in completion order, not grid order.
type Progress func(completed, total int, label string, res Result)

// sweepConfig collects Sweep's execution options.
type sweepConfig struct {
	parallelism int
	progress    Progress
	runResult   func(index int, res Result)
}

// SweepOption configures Sweep's execution (not the runs themselves —
// those are configured per Runner).
type SweepOption func(*sweepConfig)

// WithParallelism bounds the worker goroutines (default GOMAXPROCS).
// Parallelism 1 executes the work serially; because every run is
// deterministic and isolated, any parallelism produces identical results.
func WithParallelism(n int) SweepOption {
	return func(c *sweepConfig) { c.parallelism = n }
}

// WithProgress installs a completion callback.
func WithProgress(fn Progress) SweepOption {
	return func(c *sweepConfig) { c.progress = fn }
}

// WithRunResult installs a per-run result callback keyed by grid index:
// fn(i, res) fires as grid[i]'s result lands, serialized. Unlike waiting
// on Sweep's return, a consumer can stream results as they land
// (cmd/sweep -json flushes NDJSON records this way); unlike Progress, the
// grid index makes the run unambiguous when labels collide.
func WithRunResult(fn func(index int, res Result)) SweepOption {
	return func(c *sweepConfig) { c.runResult = fn }
}

// Sweep executes a grid of configured Runners across a worker pool and
// returns their Results in grid order — result i belongs to grid[i]
// regardless of scheduling, so sweeps are reproducible under any
// parallelism. Every run is an ordinary Run: a fresh machine replaying
// its own cursor; hand the grid one arena (WithSharedTrace) and runs over
// the same trace replay one resident copy. A failing run cancels the
// remaining work and its error is returned (runs cancelled as collateral
// never mask it); cancelling ctx stops runs in flight.
func Sweep(ctx context.Context, grid []*Runner, opts ...SweepOption) ([]Result, error) {
	cfg := sweepConfig{}
	for _, o := range opts {
		o(&cfg)
	}
	for i, r := range grid {
		if r == nil {
			return nil, fmt.Errorf("stems: Sweep grid[%d] is nil", i)
		}
	}

	var mu sync.Mutex
	completed := 0
	results, err := par.Map(ctx, len(grid), cfg.parallelism, func(ctx context.Context, i int) (Result, error) {
		res, err := grid[i].Run(ctx)
		if err != nil {
			return Result{}, fmt.Errorf("stems: sweep run %d (%s): %w", i, grid[i].Label(), err)
		}
		if cfg.progress != nil || cfg.runResult != nil {
			mu.Lock()
			completed++
			if cfg.progress != nil {
				cfg.progress(completed, len(grid), grid[i].Label(), res)
			}
			if cfg.runResult != nil {
				cfg.runResult(i, res)
			}
			mu.Unlock()
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}
