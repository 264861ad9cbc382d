// Tests for the context contract of the v2 API: cancellation stops a run
// within one engine round and a sweep within one cell per worker, partial
// results survive, the old non-ctx entry points are unchanged, and no
// goroutines leak — neither on cancellation nor when a streaming consumer
// walks away early.
package radiobcast_test

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"radiobcast"
	"radiobcast/internal/graph"
	"radiobcast/internal/radio"
)

func TestRunCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := radiobcast.RunCtx(ctx, figNet(t), "b")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out != nil {
		t.Fatal("pre-cancelled run produced an outcome")
	}
}

// TestLabelSearchStopsAtDeadline: the searching schemes check the context
// between simulations and candidate evaluations, so a deadline far below a
// full search ends the labeling with the context's own error. On
// gnp-sparse/1024 neither search finds a labeling, and without the checks
// onebit runs for seconds.
func TestLabelSearchStopsAtDeadline(t *testing.T) {
	net, err := radiobcast.Family("gnp-sparse", 1024)
	if err != nil {
		t.Fatal(err)
	}
	net.Graph.Freeze()
	for _, scheme := range []string{"gjp", "onebit"} {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		start := time.Now()
		l, err := radiobcast.LabelNetworkCtx(ctx, net, scheme)
		took := time.Since(start)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) || l != nil {
			t.Errorf("%s: labeling %v, err %v; want context.DeadlineExceeded", scheme, l != nil, err)
		}
		if took > time.Second {
			t.Errorf("%s: returned %v after a 50ms deadline, want within 1s", scheme, took)
		}
	}
}

// TestRunCtxCancelMidRunPartial pins the partial-result contract: a run
// cancelled in round r returns ctx.Err() together with the prefix through
// round r, and stops within one round.
func TestRunCtxCancelMidRunPartial(t *testing.T) {
	net, err := radiobcast.Family("grid", 400)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const cancelRound = 4
	out, err := radiobcast.RunCtx(ctx, net, "b",
		radiobcast.WithMessage("m"),
		// Run the package's engine with a Stop predicate that cancels after
		// round cancelRound: a deterministic mid-run trigger that leaves
		// the schedule untouched.
		radiobcast.WithEngine(func(g *graph.Graph, ps []radio.Protocol, opt radio.Options) *radio.Result {
			opt.Engine = nil
			stop := opt.Stop
			opt.Stop = func(round int) bool {
				if round >= cancelRound {
					cancel()
				}
				return stop != nil && stop(round)
			}
			return radio.Run(g, ps, opt)
		}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out == nil {
		t.Fatal("cancelled run returned no partial outcome")
	}
	if !out.Result.Interrupted {
		t.Fatal("partial outcome not marked Interrupted")
	}
	// The engine checks between rounds: it may finish the round in which
	// cancel() fired, never more.
	if out.Result.Rounds < cancelRound || out.Result.Rounds > cancelRound+1 {
		t.Fatalf("stopped after round %d, want within one round of %d", out.Result.Rounds, cancelRound)
	}
	if out.AllInformed {
		t.Fatal("a 400-node broadcast cannot complete in 5 rounds; partial accounting is wrong")
	}
}

func TestRunLabeledCtxDeadline(t *testing.T) {
	net, err := radiobcast.Family("grid", 400)
	if err != nil {
		t.Fatal(err)
	}
	l, err := radiobcast.LabelNetwork(net, "b")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	out, err := radiobcast.RunLabeledCtx(ctx, l, radiobcast.WithMessage("m"))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	// An already-expired deadline is caught at entry, before any work —
	// consistent with RunCtx: no outcome, just the ctx error.
	if out != nil {
		t.Fatalf("pre-expired deadline produced an outcome: %+v", out)
	}
}

// TestSweepCancellationWithinOneCell pins the streaming-sweep contract of
// the issue: cancelling mid-grid stops dispatch within one cell per
// worker, every finished cell is still yielded, the iterator yields
// ctx.Err() last, and the worker goroutines drain without leaking. Cell
// starts are counted inside the scheme itself (via hook-b), so the
// assertion is immune to consumer-side yield lag.
func TestSweepCancellationWithinOneCell(t *testing.T) {
	before := runtime.NumGoroutine()
	const workers, cancelAfter, repeats = 2, 3, 60
	hookB.reset()
	defer hookB.reset()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	trigger := func(*radiobcast.Plan) {
		if hookB.plans.Load() >= cancelAfter {
			cancel()
		}
	}
	hookB.onPlan.Store(&trigger)
	spec := radiobcast.SweepSpec{
		Families: []string{"path"},
		Sizes:    []int{64},
		Schemes:  []string{"hook-b"},
		Repeats:  repeats,
		Workers:  workers,
	}
	sess := radiobcast.NewSession()
	var cells int
	var finalErr error
	sawErrLast := true
	for res, err := range sess.Sweep(ctx, spec) {
		if err != nil {
			finalErr = err
			continue
		}
		if finalErr != nil {
			sawErrLast = false // a cell arrived after the error yield
		}
		if res.Err != nil {
			// A cell overtaken by the cancel reports ctx's error — with
			// the partial prefix if its run had started, without one if
			// it was caught at entry. Any other failure is a real bug.
			if !errors.Is(res.Err, context.Canceled) {
				t.Fatalf("%s: %v", res.Cell, res.Err)
			}
		}
		cells++
	}
	if !errors.Is(finalErr, context.Canceled) {
		t.Fatalf("final yield err = %v, want context.Canceled", finalErr)
	}
	if !sawErrLast {
		t.Fatal("iterator yielded cells after the context error")
	}
	// Every dispatched cell is yielded exactly once (cancellation keeps
	// draining), so the yield count is the number of cells dispatched:
	// the cancelAfter that ran before the trigger fired, at most one in
	// flight per worker, plus at most one index racing the dispatcher's
	// cancellation check. The scheme-run counter can only trail it (a
	// dispatched cell may be caught at its entry ctx check).
	if cells > cancelAfter+workers+1 {
		t.Fatalf("%d cells dispatched, want ≤ %d (cancellation must stop dispatch within one cell)",
			cells, cancelAfter+workers+1)
	}
	if started := int(hookB.plans.Load()); started > cells {
		t.Fatalf("%d scheme runs for %d dispatched cells", started, cells)
	}
	waitForGoroutines(t, before)
}

// TestSweepEarlyBreakLeaksNothing: a consumer abandoning the stream stops
// the pool; workers park pending results in the buffered channel and exit.
func TestSweepEarlyBreakLeaksNothing(t *testing.T) {
	before := runtime.NumGoroutine()
	sess := radiobcast.NewSession()
	spec := radiobcast.SweepSpec{
		Families: []string{"path"},
		Sizes:    []int{16},
		Schemes:  []string{"b"},
		Repeats:  100,
		Workers:  4,
	}
	for res, err := range sess.Sweep(context.Background(), spec) {
		if err != nil {
			t.Fatal(err)
		}
		if res.Index >= 0 {
			break // walk away after the first cell
		}
	}
	waitForGoroutines(t, before)
}

// waitForGoroutines is the counted-worker leak check: the goroutine count
// must return to (near) its pre-test level once in-flight cells drain.
func waitForGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after drain window", before, runtime.NumGoroutine())
}

// TestRunSweepCtxPartialGridOrder: the collecting wrapper returns every
// cell finished before the cut-off, in grid order, plus ctx.Err().
func TestRunSweepCtxPartialGridOrder(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The grid is far longer than the cancellation needs to propagate:
	// after the fifth cell is streamed, only the results already in the
	// stream's buffer (at most 256) and one cell per worker can follow.
	const repeats = 600
	var streamed atomic.Int64
	spec := radiobcast.SweepSpec{
		Families: []string{"grid"},
		Sizes:    []int{2500},
		Schemes:  []string{"b"},
		Repeats:  repeats,
		Workers:  2,
		OnCell: func(radiobcast.CellResult) {
			if streamed.Add(1) == 5 {
				cancel()
			}
		},
	}
	results, err := radiobcast.RunSweepCtx(ctx, spec)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(results) < 5 || len(results) >= repeats {
		t.Fatalf("partial sweep returned %d cells", len(results))
	}
	for i := 1; i < len(results); i++ {
		if results[i-1].Index >= results[i].Index {
			t.Fatalf("partial results not in grid order at %d", i)
		}
	}
}

// TestNonCtxEntryPointsUnchanged: the v1 signatures still work and cannot
// be cancelled.
func TestNonCtxEntryPointsUnchanged(t *testing.T) {
	net := figNet(t)
	out, err := radiobcast.Run(net, "b", radiobcast.WithMessage("m"))
	if err != nil || !out.AllInformed {
		t.Fatalf("v1 Run broken: %v", err)
	}
	if out.Result.Interrupted {
		t.Fatal("uncancellable run marked Interrupted")
	}
	l, err := radiobcast.LabelNetwork(net, "b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := radiobcast.RunLabeled(l, radiobcast.WithMessage("m")); err != nil {
		t.Fatalf("v1 RunLabeled broken: %v", err)
	}
}
