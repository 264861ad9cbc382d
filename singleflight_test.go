// Tests for the Session's single-flight deduplication of concurrent
// label computations.
package radiobcast_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"radiobcast"
)

// TestSessionSingleFlight pins the dedup contract: N concurrent requests
// missing on the same key perform exactly one λ construction — one miss,
// N−1 coalesced waits, zero extra Label calls — and every request
// observes the identical labeling.
func TestSessionSingleFlight(t *testing.T) {
	hookB.reset()
	defer hookB.reset()
	sess := radiobcast.NewSession()
	net := figNet(t)
	// The graph is shared across goroutines: freeze it once up front
	// (CSR and fingerprint) so every later use is a read.
	net.Graph.Freeze()

	const n = 8
	release := make(chan struct{})
	entered := make(chan struct{}, n)
	block := func() error {
		entered <- struct{}{}
		<-release
		return nil
	}
	hookB.onLabel.Store(&block)

	var wg sync.WaitGroup
	labelings := make([]*radiobcast.Labeling, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			labelings[i], errs[i] = sess.Label(context.Background(), net, "hook-b")
		}(i)
	}

	// Exactly one goroutine may become the leader and enter Label; the
	// other n−1 must pile onto its flight while it blocks.
	<-entered
	deadline := time.Now().Add(10 * time.Second)
	for sess.Stats().Coalesced < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d followers coalesced", sess.Stats().Coalesced, n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if labelings[i] != labelings[0] {
			t.Fatalf("request %d observed a different labeling object", i)
		}
	}
	if got := hookB.labels.Load(); got != 1 {
		t.Fatalf("Label called %d times for %d concurrent requests, want 1", got, n)
	}
	st := sess.Stats()
	if st.Misses != 1 || st.Coalesced != n-1 || st.Hits != 0 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 miss / %d coalesced / 0 hits / 1 entry", st, n-1)
	}

	// The flight is gone: one more request is a plain cache hit.
	if _, err := sess.Label(context.Background(), net, "hook-b"); err != nil {
		t.Fatal(err)
	}
	if st := sess.Stats(); st.Hits != 1 {
		t.Fatalf("post-flight request should hit the cache: %+v", st)
	}
}

// TestSessionSingleFlightWaiterCancel: a coalesced waiter whose context
// ends abandons the wait with ctx.Err() while the leader (and the cache
// insert) proceed unaffected.
func TestSessionSingleFlightWaiterCancel(t *testing.T) {
	hookB.reset()
	defer hookB.reset()
	sess := radiobcast.NewSession()
	net := figNet(t)
	net.Graph.Freeze()
	net.Graph.Fingerprint()

	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	block := func() error {
		entered <- struct{}{}
		<-release
		return nil
	}
	hookB.onLabel.Store(&block)

	leaderDone := make(chan error, 1)
	go func() {
		_, err := sess.Label(context.Background(), net, "hook-b")
		leaderDone <- err
	}()
	<-entered

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	waiterDone := make(chan error, 1)
	go func() {
		_, err := sess.Label(ctx, net, "hook-b")
		waiterDone <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for sess.Stats().Coalesced < 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never coalesced")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-waiterDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
	}

	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader: %v", err)
	}
	st := sess.Stats()
	if st.Misses != 1 || st.Coalesced != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 miss / 1 coalesced / 1 entry", st)
	}
}

// TestSessionSingleFlightLeaderCancel: a leader whose context ends stops
// its labeling with the context's error, and a coalesced waiter whose own
// context is live does not inherit that error: it leads a new flight and
// gets the labeling.
func TestSessionSingleFlightLeaderCancel(t *testing.T) {
	hookB.reset()
	defer hookB.reset()
	sess := radiobcast.NewSession()
	net := figNet(t)
	net.Graph.Fingerprint()

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	entered := make(chan struct{}, 1)
	hook := func() error {
		if hookB.labels.Load() > 1 {
			return nil // the waiter's own flight labels normally
		}
		entered <- struct{}{}
		<-leaderCtx.Done()
		return leaderCtx.Err()
	}
	hookB.onLabel.Store(&hook)

	leaderDone := make(chan error, 1)
	go func() {
		_, err := sess.Label(leaderCtx, net, "hook-b")
		leaderDone <- err
	}()
	<-entered

	type result struct {
		l   *radiobcast.Labeling
		err error
	}
	waiterDone := make(chan result, 1)
	go func() {
		l, err := sess.Label(context.Background(), net, "hook-b")
		waiterDone <- result{l, err}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for sess.Stats().Coalesced < 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never coalesced")
		}
		time.Sleep(time.Millisecond)
	}
	cancelLeader()
	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled leader returned %v, want context.Canceled", err)
	}
	w := <-waiterDone
	if w.err != nil && !errors.Is(w.err, radiobcast.ErrNoLabeling) {
		t.Fatalf("live waiter returned %v, want a labeling or ErrNoLabeling", w.err)
	}
	if w.err == nil && w.l == nil {
		t.Fatal("live waiter returned neither a labeling nor an error")
	}
	if got := hookB.labels.Load(); got != 2 {
		t.Fatalf("Label called %d times, want 2 (the cancelled leader, then the waiter)", got)
	}
	st := sess.Stats()
	if st.Misses != 2 || st.Coalesced != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 2 misses / 1 coalesced / 1 entry", st)
	}
}
