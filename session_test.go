// Tests for the Session serving object: the labeling cache (hits keyed by
// graph structure, eviction, bypass), the pooled-engine allocation
// guarantee, and bit-identity with the plain facade.
package radiobcast_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	"radiobcast"
)

// TestSessionCacheHitSkipsRelabeling pins the core serving property: the
// first Run labels, every subsequent Run on the same topology serves the
// cached labeling — the scheme's Label is never called again.
func TestSessionCacheHitSkipsRelabeling(t *testing.T) {
	hookB.reset()
	defer hookB.reset()
	sess := radiobcast.NewSession()
	net := figNet(t)
	for i := 0; i < 5; i++ {
		out, err := sess.Run(context.Background(), net, "hook-b", radiobcast.WithMessage("m"))
		if err != nil || !out.AllInformed {
			t.Fatalf("run %d: %v", i, err)
		}
		if err := radiobcast.Verify(out); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if got := hookB.labels.Load(); got != 1 {
		t.Fatalf("Label called %d times for 5 runs, want 1 (cache must serve the rest)", got)
	}
	st := sess.Stats()
	if st.Misses != 1 || st.Hits != 4 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 miss / 4 hits / 1 entry", st)
	}
}

// TestSessionCacheKeyedByStructure: a labeling computed for one *Graph
// serves any structurally identical one (the key is the fingerprint, not
// the pointer), while a different topology or source misses.
func TestSessionCacheKeyedByStructure(t *testing.T) {
	sess := radiobcast.NewSession()
	ctx := context.Background()
	a, _ := radiobcast.Family("grid", 16)
	b, _ := radiobcast.Family("grid", 16) // same structure, different object
	c, _ := radiobcast.Family("path", 16)
	if _, err := sess.Run(ctx, a, "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(ctx, b, "b"); err != nil {
		t.Fatal(err)
	}
	if st := sess.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("structurally identical graph missed: %+v", st)
	}
	if _, err := sess.Run(ctx, c, "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(ctx, a, "b", radiobcast.WithSource(3)); err != nil {
		t.Fatal(err)
	}
	if st := sess.Stats(); st.Misses != 3 {
		t.Fatalf("different topology/source should miss: %+v", st)
	}
}

func TestSessionCacheEviction(t *testing.T) {
	sess := radiobcast.NewSession(radiobcast.WithLabelingCache(2))
	ctx := context.Background()
	for _, fam := range []string{"path", "grid", "cycle"} {
		net, err := radiobcast.Family(fam, 16)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Run(ctx, net, "b"); err != nil {
			t.Fatal(err)
		}
	}
	st := sess.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction / 2 entries", st)
	}
	// The LRU victim is the oldest entry ("path"): rerunning it misses.
	net, _ := radiobcast.Family("path", 16)
	if _, err := sess.Run(ctx, net, "b"); err != nil {
		t.Fatal(err)
	}
	if st := sess.Stats(); st.Misses != 4 || st.Hits != 0 {
		t.Fatalf("evicted entry should miss: %+v", st)
	}
}

// TestSessionFamilySharesGraph: every Family call returns its own
// *Network, so At and Coordinated on one never leak into another, while
// the *Graph inside is built once and shared.
func TestSessionFamilySharesGraph(t *testing.T) {
	sess := radiobcast.NewSession()
	a, err := sess.Family("grid", 64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sess.Family("grid", 64)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("two Family calls returned the same *Network")
	}
	if a.Graph != b.Graph {
		t.Fatal("second Family call rebuilt the graph")
	}
	want, _ := radiobcast.Family("grid", 64)
	if a.Graph.Fingerprint() != want.Graph.Fingerprint() || a.Name != want.Name {
		t.Fatal("cached member differs from the package-level Family's")
	}
	a.At(5).Coordinated(3)
	if b.Source != 0 || b.Coordinator != 0 {
		t.Fatalf("At/Coordinated on one network leaked into another: %+v", b)
	}
	if c, _ := sess.Family("grid", 64); c.Source != 0 || c.Coordinator != 0 {
		t.Fatalf("At/Coordinated leaked into the cached template: %+v", c)
	}

	f, err := sess.Family("figure1", 0)
	if err != nil {
		t.Fatal(err)
	}
	preset := radiobcast.Figure1().Source
	f.At(0)
	g, _ := sess.Family("figure1", 0)
	if g.Source != preset || g.Graph != f.Graph {
		t.Fatalf("figure1 source = %d (want preset %d), graph shared = %v", g.Source, preset, g.Graph == f.Graph)
	}
}

// TestSessionFamilyCapacity: the graph cache is bounded by the labeling
// cache's capacity and evicts least recently used; capacity 0 caches
// nothing; an unknown family is an error that takes no slot.
func TestSessionFamilyCapacity(t *testing.T) {
	member := func(t *testing.T, sess *radiobcast.Session, name string) *radiobcast.Graph {
		t.Helper()
		net, err := sess.Family(name, 8)
		if err != nil {
			t.Fatal(err)
		}
		return net.Graph
	}
	t.Run("eviction", func(t *testing.T) {
		sess := radiobcast.NewSession(radiobcast.WithLabelingCache(2))
		path := member(t, sess, "path")
		cycle := member(t, sess, "cycle")
		member(t, sess, "path") // path is now the most recent
		member(t, sess, "star") // evicts cycle
		if member(t, sess, "path") != path {
			t.Fatal("recently used member was evicted")
		}
		if member(t, sess, "cycle") == cycle {
			t.Fatal("least recently used member survived past capacity")
		}
	})
	t.Run("capacity 0", func(t *testing.T) {
		sess := radiobcast.NewSession(radiobcast.WithLabelingCache(0))
		a, b := member(t, sess, "path"), member(t, sess, "path")
		if a == b {
			t.Fatal("capacity 0 cached a graph")
		}
		if a.Fingerprint() != b.Fingerprint() {
			t.Fatal("uncached members differ structurally")
		}
	})
	t.Run("unknown family", func(t *testing.T) {
		sess := radiobcast.NewSession(radiobcast.WithLabelingCache(1))
		path := member(t, sess, "path")
		for i := 0; i < 2; i++ {
			if net, err := sess.Family("nosuch", 8); err == nil {
				t.Fatalf("unknown family returned %v", net)
			}
		}
		if member(t, sess, "path") != path {
			t.Fatal("a failed Family call displaced a cached member")
		}
	})
}

// TestSessionCacheBypass: the label-affecting option (quick mode) must
// not poison the cache — it bypasses it.
func TestSessionCacheBypass(t *testing.T) {
	sess := radiobcast.NewSession()
	ctx := context.Background()
	net := figNet(t)
	if _, err := sess.Run(ctx, net, "b", radiobcast.WithQuick()); err != nil {
		t.Fatal(err)
	}
	st := sess.Stats()
	if st.Bypasses != 1 || st.Entries != 0 || st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want 1 bypass and an untouched cache", st)
	}
}

// TestSessionRunMatchesFacade: the served path (cache + pooled Sim) is
// bit-identical to the plain facade.
func TestSessionRunMatchesFacade(t *testing.T) {
	sess := radiobcast.NewSession()
	for _, scheme := range []string{"b", "back", "barb", "roundrobin", "centralized"} {
		net, err := radiobcast.Family("grid", 25)
		if err != nil {
			t.Fatal(err)
		}
		want, err := radiobcast.Run(net, scheme, radiobcast.WithMessage("m"))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ { // miss path, then hit path
			got, err := sess.Run(context.Background(), net, scheme, radiobcast.WithMessage("m"))
			if err != nil {
				t.Fatalf("%s run %d: %v", scheme, i, err)
			}
			if !sameResults(want.Result, got.Result) {
				t.Fatalf("%s run %d: session diverged from facade", scheme, i)
			}
		}
	}
}

// TestSessionSteadyStateAllocs pins the acceptance criterion: the cache-
// hit + pooled-Sim serving path stays within the facade's existing alloc
// budget (≤ 40 allocs/run, independent of n and traffic).
func TestSessionSteadyStateAllocs(t *testing.T) {
	net, err := radiobcast.Family("grid", 256)
	if err != nil {
		t.Fatal(err)
	}
	sess := radiobcast.NewSession()
	ctx := context.Background()
	run := func() {
		out, err := sess.Run(ctx, net, "b", radiobcast.WithMessage("m"))
		if err != nil || !out.AllInformed {
			t.Fatalf("run failed: %v", err)
		}
	}
	run() // warm-up: labels the topology and sizes the pooled Sim
	// 100 iterations so that a GC clearing the Sim pool mid-measurement
	// (one iteration then pays a full buffer rebuild) cannot push the
	// average over budget; the budget itself stays per-run.
	allocs := testing.AllocsPerRun(100, run)
	const budget = 40
	if allocs > budget {
		t.Fatalf("steady-state Session.Run does %.0f allocs/run, want ≤ %d", allocs, budget)
	}
}

// TestSessionLabelsOncePerAnchor: a Session keys a labeling by the one
// node its labels depend on. Runs from 8 sources share one barb labeling
// per coordinator, and one roundrobin, colorrobin and flooding labeling,
// while b labels once per source.
func TestSessionLabelsOncePerAnchor(t *testing.T) {
	ctx := context.Background()
	net, err := radiobcast.Family("path", 16)
	if err != nil {
		t.Fatal(err)
	}
	sess := radiobcast.NewSession()
	defer sess.Close(ctx)
	misses := func(scheme string, opts ...radiobcast.Option) uint64 {
		t.Helper()
		before := sess.CacheMisses()
		for src := range 8 {
			out, err := sess.Run(ctx, net, scheme, append(opts, radiobcast.WithSource(src))...)
			if err != nil {
				t.Fatalf("%s from %d: %v", scheme, src, err)
			}
			if err := radiobcast.Verify(out); err != nil || out.Source != src {
				t.Fatalf("%s from %d: ran from %d, verify: %v", scheme, src, out.Source, err)
			}
		}
		return sess.CacheMisses() - before
	}
	for _, c := range []struct {
		scheme string
		opts   []radiobcast.Option
		want   uint64
	}{
		{"barb", nil, 1},
		{"barb", []radiobcast.Option{radiobcast.WithCoordinator(5)}, 1}, // a second coordinator is a second miss
		{"barb", nil, 0},
		{"roundrobin", nil, 1},
		{"colorrobin", nil, 1},
		{"flooding", nil, 1},
		{"b", nil, 8},
	} {
		if got := misses(c.scheme, c.opts...); got != c.want {
			t.Errorf("%s over 8 sources: %d misses, want %d", c.scheme, got, c.want)
		}
	}
	for _, c := range []struct {
		scheme string
		opts   []radiobcast.Option
		anchor int
	}{
		{"barb", []radiobcast.Option{radiobcast.WithCoordinator(5)}, 5},
		{"roundrobin", nil, 0},
		{"b", nil, 7},
	} {
		l, err := sess.Label(ctx, net, c.scheme, append(c.opts, radiobcast.WithSource(7))...)
		if err != nil {
			t.Fatal(err)
		}
		if l.Source != c.anchor {
			t.Errorf("%s labeling for source 7: Source %d, want its anchor %d", c.scheme, l.Source, c.anchor)
		}
	}
}

// TestSessionSweepReusesCache: a second sweep over the same grid serves
// every labeling from the session cache.
func TestSessionSweepReusesCache(t *testing.T) {
	sess := radiobcast.NewSession()
	spec := radiobcast.SweepSpec{
		Families: []string{"path", "grid"},
		Sizes:    []int{16, 25},
		Schemes:  []string{"b", "back"},
		Workers:  2,
	}
	runSweepOnce := func() {
		t.Helper()
		for res, err := range sess.Sweep(context.Background(), spec) {
			if err != nil {
				t.Fatal(err)
			}
			if res.Err != nil {
				t.Fatalf("%s: %v", res.Cell, res.Err)
			}
		}
	}
	runSweepOnce()
	missesAfterFirst := sess.Stats().Misses
	if missesAfterFirst == 0 {
		t.Fatal("first sweep computed no labelings through the cache")
	}
	runSweepOnce()
	st := sess.Stats()
	if st.Misses != missesAfterFirst {
		t.Fatalf("second sweep relabeled: misses %d → %d", missesAfterFirst, st.Misses)
	}
	if st.Hits < missesAfterFirst {
		t.Fatalf("second sweep did not hit the cache: %+v", st)
	}
}

// TestSessionStatsConcurrent hammers the cache from writer goroutines
// while readers snapshot Stats and the per-counter accessors, checking
// (under -race) that snapshots are safe and each counter is monotonic
// across successive reads.
func TestSessionStatsConcurrent(t *testing.T) {
	sess := radiobcast.NewSession()
	nets := make([]*radiobcast.Network, 4)
	for i := range nets {
		net, err := radiobcast.Family("path", 8+4*i)
		if err != nil {
			t.Fatal(err)
		}
		net.Graph.Freeze()
		net.Graph.Fingerprint()
		nets[i] = net
	}
	ctx := context.Background()
	done := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 25; i++ {
				if _, err := sess.Run(ctx, nets[(w+i)%len(nets)], "b"); err != nil {
					t.Errorf("run: %v", err)
					return
				}
			}
		}(w)
	}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		var prev radiobcast.SessionStats
		for {
			st := sess.Stats()
			if st.Hits < prev.Hits || st.Misses < prev.Misses ||
				st.Bypasses < prev.Bypasses || st.Evictions < prev.Evictions {
				t.Errorf("counter went backwards: %+v after %+v", st, prev)
				return
			}
			if acc := sess.CacheHits(); acc < st.Hits {
				t.Errorf("accessor behind an earlier snapshot: %d < %d", acc, st.Hits)
				return
			}
			prev = st
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	writers.Wait()
	close(done)
	<-readerDone
}

// TestSessionCloseDrains pins the drain hook: Close blocks until in-flight
// runs return, and a deadline ctx bounds the wait.
func TestSessionCloseDrains(t *testing.T) {
	sess := radiobcast.NewSession()
	net, err := radiobcast.Family("grid", 256)
	if err != nil {
		t.Fatal(err)
	}
	net.Graph.Freeze()
	net.Graph.Fingerprint()
	ctx := context.Background()
	if _, err := sess.Run(ctx, net, "b"); err != nil { // warm the cache
		t.Fatal(err)
	}
	started := make(chan struct{})
	finished := make(chan error, 8)
	var inFlight sync.WaitGroup
	for i := 0; i < 8; i++ {
		inFlight.Add(1)
		go func() {
			defer inFlight.Done()
			started <- struct{}{}
			_, err := sess.Run(ctx, net, "b")
			finished <- err
		}()
	}
	for i := 0; i < 8; i++ {
		<-started
	}
	if err := sess.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
	inFlight.Wait()
	close(finished)
	for err := range finished {
		// Each racer either got in before Close (nil error) or was turned
		// away with the sentinel — never anything else, never a torn state.
		if err != nil && !errors.Is(err, radiobcast.ErrSessionClosed) {
			t.Fatalf("in-flight run failed with %v", err)
		}
	}
	// After Close returns, the session must reject new work immediately.
	if _, err := sess.Run(ctx, net, "b"); !errors.Is(err, radiobcast.ErrSessionClosed) {
		t.Fatalf("post-drain Run: err = %v, want ErrSessionClosed", err)
	}
}

// BenchmarkSessionCacheHit measures the steady-state serving path: every
// iteration is a cache hit on a pooled engine. Compare with
// BenchmarkSessionRelabelEveryRun to see what the cache buys.
func BenchmarkSessionCacheHit(b *testing.B) {
	net, err := radiobcast.Family("grid", 1024)
	if err != nil {
		b.Fatal(err)
	}
	sess := radiobcast.NewSession()
	ctx := context.Background()
	if _, err := sess.Run(ctx, net, "b", radiobcast.WithMessage("m")); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Run(ctx, net, "b", radiobcast.WithMessage("m")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionRelabelEveryRun is the counterfactual: the same run
// with the labeling recomputed every time (cache disabled).
func BenchmarkSessionRelabelEveryRun(b *testing.B) {
	net, err := radiobcast.Family("grid", 1024)
	if err != nil {
		b.Fatal(err)
	}
	sess := radiobcast.NewSession(radiobcast.WithLabelingCache(0))
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Run(ctx, net, "b", radiobcast.WithMessage("m")); err != nil {
			b.Fatal(err)
		}
	}
}
