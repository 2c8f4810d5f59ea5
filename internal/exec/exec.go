// Package exec provides the deterministic worker-pool executor every
// study driver in internal/core runs on. A study is a grid of independent
// simulations — the paper replays each (benchmark, clock-point) pair as a
// separate binary run — so the grid parallelizes freely as long as the
// aggregate output stays deterministic. The executor guarantees that by
// construction: results are slotted by item index, never by completion
// order, so the output of Map is byte-for-byte identical at any worker
// count, and Workers == 1 degenerates to a plain serial loop on the
// caller's goroutine.
package exec

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Pool sizes one executor invocation.
type Pool struct {
	// Workers is the number of concurrent workers: 0 means GOMAXPROCS,
	// 1 runs every job serially on the caller's goroutine (reproducing an
	// ordinary loop bit-for-bit), and higher values cap the pool.
	Workers int

	// Ctx cancels a run early; nil means the run cannot be cancelled.
	Ctx context.Context

	// OnTaskStart, when non-nil, is called on the worker's goroutine just
	// before job index runs. worker identifies the worker (0..size-1; the
	// serial path is always worker 0) and queueWait is the time elapsed
	// between Map submitting the grid and this job being picked up.
	// OnTaskDone is called right after the job returns, with its duration.
	//
	// Hook contract: hooks are observation-only. Map never alters
	// scheduling, ordering or results based on them, so output stays
	// byte-for-byte identical whether they are set or nil; hooks must be
	// safe for concurrent calls (every worker invokes them) and must not
	// mutate items or results. internal/obs.Recorder satisfies both
	// signatures directly.
	OnTaskStart func(worker, index int, queueWait time.Duration)
	OnTaskDone  func(worker, index int, dur time.Duration)

	// Skip, when non-nil, is consulted once per job at the moment a
	// worker would otherwise run it: a true return abandons that job —
	// its result slot keeps the zero value and neither observation hook
	// fires. It exists so a long-lived caller (the sweep-serving daemon)
	// can cancel individual not-yet-started tasks whose requesters have
	// gone away without tearing down the whole run the way Ctx does.
	//
	// Contract: Skip selects which slots get filled; it must never
	// influence the value computed for a job that does run. fn stays a
	// pure function of (index, item), so every filled slot is
	// byte-for-byte identical at any worker count regardless of how Skip
	// answered for other jobs. Skip must be safe for concurrent calls
	// and should be monotonic (once true for an index, stay true): a
	// job observed as skipped never runs later.
	Skip func(index int) bool
}

// size resolves the worker count for n items.
func (p Pool) size(n int) int {
	w := p.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ctx resolves the pool's context.
func (p Pool) ctx() context.Context {
	if p.Ctx == nil {
		return context.Background()
	}
	return p.Ctx
}

// Map applies fn to every item and returns the results slotted by item
// index. Jobs are handed out in index order; completion order never
// affects the output, so Map is deterministic at any worker count.
//
// When the pool's context is cancelled, Map stops handing out work and
// returns the context's error; slots whose jobs never ran hold zero
// values, so a caller that sees a non-nil error must discard the results.
func Map[T, R any](p Pool, items []T, fn func(int, T) R) ([]R, error) {
	results := make([]R, len(items))
	if len(items) == 0 {
		return results, nil
	}
	ctx := p.ctx()
	workers := p.size(len(items))

	// call wraps fn with the observation hooks; when no hook is set it is
	// fn itself modulo the worker id, so the hot path stays time.Now-free.
	call := func(w, i int, it T) R { return fn(i, it) }
	if p.OnTaskStart != nil || p.OnTaskDone != nil {
		submitted := time.Now() //reprolint:allow nondeterminism: queue-wait timing feeds the observation hooks only, never task results
		call = func(w, i int, it T) R {
			start := time.Now() //reprolint:allow nondeterminism: task timing feeds the observation hooks only, never task results
			if p.OnTaskStart != nil {
				p.OnTaskStart(w, i, start.Sub(submitted))
			}
			r := fn(i, it)
			if p.OnTaskDone != nil {
				//reprolint:allow nondeterminism: task timing feeds the observation hooks only, never task results
				p.OnTaskDone(w, i, time.Since(start))
			}
			return r
		}
	}

	if workers == 1 {
		for i, it := range items {
			if err := ctx.Err(); err != nil {
				return results, err
			}
			if p.Skip != nil && p.Skip(i) {
				continue
			}
			results[i] = call(0, i, it)
		}
		return results, ctx.Err()
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				if p.Skip != nil && p.Skip(i) {
					continue
				}
				results[i] = call(w, i, items[i])
			}
		}(w)
	}
	wg.Wait()
	return results, ctx.Err()
}
