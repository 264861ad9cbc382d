// Package sweep provides the parallel fan-out machinery for the experiment
// harness: deterministic worker-pool maps over parameter grids. Results are
// returned in input order regardless of scheduling, so experiment tables
// are reproducible run to run.
package sweep

import (
	"context"
	"runtime"
	"sync"
)

// Map applies f to every item using the given number of workers
// (0 or negative → GOMAXPROCS) and returns results in input order.
func Map[T, R any](items []T, workers int, f func(T) R) []R {
	n := len(items)
	out := make([]R, n)
	if n == 0 {
		return out
	}
	workers = Workers(n, workers)
	if workers == 1 {
		for i, it := range items {
			out[i] = f(it)
		}
		return out
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = f(items[i])
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// streamBuffer bounds StreamIdx's channel buffer: enough slack that a
// briefly descheduled consumer does not stall the pool, without paying
// O(grid) memory up front on million-item sweeps.
const streamBuffer = 256

// StreamIdx runs f(i) for every i in [0, n) on a pool of workers
// and delivers the results, in completion order, on the returned channel,
// which is closed once every dispatched item has been delivered. The
// second return value abandons the stream: a consumer that stops reading
// early MUST call it (idempotent, safe after close) so the workers drop
// their undeliverable results and exit instead of blocking forever.
//
// Cancellation is checked between items: once ctx is done no further
// index is dispatched and each worker finishes at most the item it is
// currently running. Cancellation alone never discards a finished
// result — the consumer is expected to keep draining until the channel
// closes, so results computed before the cut-off are never lost; only
// abandoning the stream discards them.
func StreamIdx[R any](ctx context.Context, n, workers int, f func(i int) R) (<-chan R, func()) {
	out := make(chan R, min(n, streamBuffer))
	abandoned := make(chan struct{})
	var once sync.Once
	abandon := func() { once.Do(func() { close(abandoned) }) }
	if n == 0 {
		close(out)
		return out, abandon
	}
	workers = Workers(n, workers)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				select {
				case out <- f(i):
				case <-abandoned:
					return
				}
			}
		}()
	}
	go func() {
	dispatch:
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				break
			}
			select {
			case idx <- i:
			case <-ctx.Done():
			case <-abandoned:
				break dispatch
			}
		}
		close(idx)
		wg.Wait()
		close(out)
	}()
	return out, abandon
}

// MapIdxCtx is Map with cancellation: once ctx is done, no further
// items are dispatched and the call returns ctx.Err() together with the
// partial results (unprocessed slots hold zero values, in input order).
func MapIdxCtx[T, R any](ctx context.Context, items []T, workers int, f func(item T) R) ([]R, error) {
	type indexed struct {
		i int
		r R
	}
	out := make([]R, len(items))
	stream, _ := StreamIdx(ctx, len(items), workers, func(i int) indexed {
		return indexed{i, f(items[i])}
	})
	for p := range stream {
		out[p.i] = p.r
	}
	return out, ctx.Err()
}

// Workers resolves a worker-count request against n items: ≤ 0 means
// GOMAXPROCS, and the result never exceeds n (or falls below 1).
func Workers(n, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// MapErr is Map for fallible work: it returns the first error by input
// order (all items are still processed).
func MapErr[T, R any](items []T, workers int, f func(T) (R, error)) ([]R, error) {
	type res struct {
		r   R
		err error
	}
	rs := Map(items, workers, func(t T) res {
		r, err := f(t)
		return res{r, err}
	})
	out := make([]R, len(items))
	var firstErr error
	for i, r := range rs {
		out[i] = r.r
		if r.err != nil && firstErr == nil {
			firstErr = r.err
		}
	}
	return out, firstErr
}
