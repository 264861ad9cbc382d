package sweep

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestMapOrderPreserved(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	got := Map(items, 8, func(x int) int { return x * x })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("got[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got := Map(nil, 4, func(x int) int { return x })
	if len(got) != 0 {
		t.Fatal("non-empty result for empty input")
	}
}

func TestMapSingleWorkerSequential(t *testing.T) {
	var order []int
	Map([]int{1, 2, 3}, 1, func(x int) int {
		order = append(order, x)
		return x
	})
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("sequential order violated: %v", order)
		}
	}
}

func TestMapAllItemsProcessedOnce(t *testing.T) {
	var count int64
	n := 1000
	items := make([]int, n)
	Map(items, 16, func(int) int {
		atomic.AddInt64(&count, 1)
		return 0
	})
	if count != int64(n) {
		t.Fatalf("processed %d items, want %d", count, n)
	}
}

func TestMapErrFirstByInputOrder(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	_, err := MapErr([]int{0, 1, 2, 3}, 4, func(x int) (int, error) {
		switch x {
		case 1:
			return 0, errA
		case 3:
			return 0, errB
		}
		return x, nil
	})
	if err != errA {
		t.Fatalf("err = %v, want first-by-order %v", err, errA)
	}
}

func TestMapErrSuccess(t *testing.T) {
	out, err := MapErr([]int{1, 2}, 2, func(x int) (int, error) { return x + 1, nil })
	if err != nil || out[0] != 2 || out[1] != 3 {
		t.Fatalf("out=%v err=%v", out, err)
	}
}

func TestMapIdxCtxCompletesInOrder(t *testing.T) {
	items := make([]int, 200)
	for i := range items {
		items[i] = i
	}
	out, err := MapIdxCtx(context.Background(), items, 8, func(x int) int { return x * 2 })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != 2*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, 2*i)
		}
	}
}

// TestMapIdxCtxCancelStopsDispatch pins the between-items cancellation
// contract: once the context is done, no further items are dispatched —
// each worker finishes at most the item it is running — and the call
// returns the partial results together with ctx.Err().
func TestMapIdxCtxCancelStopsDispatch(t *testing.T) {
	const n, workers, cancelAt = 500, 4, 10
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	items := make([]int, n)
	var processed atomic.Int64
	out, err := MapIdxCtx(ctx, items, workers, func(int) int {
		if processed.Add(1) == cancelAt {
			cancel()
		}
		return 1
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	done := 0
	for _, v := range out {
		done += v
	}
	// At most the in-flight item per worker may complete after the cancel.
	if done < cancelAt || done > cancelAt+workers {
		t.Fatalf("%d items completed, want within [%d, %d]", done, cancelAt, cancelAt+workers)
	}
	if done == n {
		t.Fatal("cancellation did not stop the grid")
	}
}

// TestStreamIdxDeliversEverythingOnce checks the stream contract: a
// consumer that drains the channel receives every result exactly once,
// even when the grid far exceeds the bounded buffer.
func TestStreamIdxDeliversEverythingOnce(t *testing.T) {
	const n = 2000 // > streamBuffer, so workers must block and resume
	ch, _ := StreamIdx(context.Background(), n, 8, func(i int) int { return i })
	seen := make([]bool, n)
	count := 0
	for v := range ch {
		if seen[v] {
			t.Fatalf("result %d delivered twice", v)
		}
		seen[v] = true
		count++
	}
	if count != n {
		t.Fatalf("received %d results, want %d", count, n)
	}
}

// TestStreamIdxAbandonUnblocksWorkers: a consumer that stops reading and
// abandons the stream must not strand workers blocked on a full buffer.
func TestStreamIdxAbandonUnblocksWorkers(t *testing.T) {
	const n = 5000
	var started atomic.Int64
	ch, abandon := StreamIdx(context.Background(), n, 4, func(i int) int {
		started.Add(1)
		return i
	})
	<-ch // read one result, then walk away
	abandon()
	// The dispatcher stops and workers exit; the channel must close even
	// though nobody drains the rest.
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-ch:
			if !ok {
				if started.Load() == n {
					t.Fatal("abandon did not stop dispatch")
				}
				return
			}
		case <-deadline:
			t.Fatal("stream never closed after abandon")
		}
	}
}

func TestStreamIdxEmpty(t *testing.T) {
	ch, _ := StreamIdx(context.Background(), 0, 4, func(i int) int { return i })
	if _, ok := <-ch; ok {
		t.Fatal("empty stream delivered a result")
	}
}

func TestQuickMapMatchesSequential(t *testing.T) {
	f := func(xs []int, workers uint8) bool {
		w := int(workers%8) + 1
		par := Map(xs, w, func(x int) int { return x*3 + 1 })
		seq := Map(xs, 1, func(x int) int { return x*3 + 1 })
		if len(par) != len(seq) {
			return false
		}
		for i := range par {
			if par[i] != seq[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
