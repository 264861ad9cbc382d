// Tests for the streaming construction path: generator validity, seed
// determinism, the GNPConnected dispatch threshold, and the CSR assembly.
package graph

import (
	"math"
	"reflect"
	"testing"
)

// TestStreamGNPValidAndConnected: the streaming generator must emit a
// structurally valid, connected, simple graph — the attachment tree
// guarantees connectivity regardless of p, and the dedup pass must
// remove any pair the sampler drew on top of a tree edge.
func TestStreamGNPValidAndConnected(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		seed int64
	}{
		{2, 0, 1}, {50, 0, 3}, {200, 0.05, 7}, {500, 0.01, 1}, {300, 0.9, 2},
	} {
		g := StreamGNPConnected(tc.n, tc.p, tc.seed)
		if g.N() != tc.n {
			t.Fatalf("n=%d p=%g: N() = %d", tc.n, tc.p, g.N())
		}
		// Validate walks the CSR built on this first read: sortedness,
		// symmetry, no loops, no duplicates, offsets spanning the targets.
		if err := g.Validate(); err != nil {
			t.Fatalf("n=%d p=%g seed=%d: %v", tc.n, tc.p, tc.seed, err)
		}
		if !g.IsConnected() {
			t.Fatalf("n=%d p=%g seed=%d: not connected", tc.n, tc.p, tc.seed)
		}
		if tc.p == 0 && g.M() != tc.n-1 {
			t.Fatalf("p=0 must yield a tree: m = %d on %d nodes", g.M(), tc.n)
		}
	}
}

// TestStreamGNPDeterministic: same (n, p, seed) — same edge set; a
// different seed must move at least one edge on a non-trivial graph.
func TestStreamGNPDeterministic(t *testing.T) {
	a := StreamGNPConnected(400, 0.02, 9)
	b := StreamGNPConnected(400, 0.02, 9)
	if !reflect.DeepEqual(a.Edges(), b.Edges()) {
		t.Fatal("same seed produced different graphs")
	}
	c := StreamGNPConnected(400, 0.02, 10)
	if reflect.DeepEqual(a.Edges(), c.Edges()) {
		t.Fatal("different seeds produced identical graphs")
	}
}

// TestGNPDispatchThreshold pins the GNPConnected routing contract:
// below streamGNPThreshold the quadratic pair loop runs (the golden
// tests depend on its exact random sequence), at and above it the
// streaming sampler takes over. The two draw different sequences, so
// each side is recognizable by its fingerprint.
func TestGNPDispatchThreshold(t *testing.T) {
	small := GNPConnected(100, 0.1, 5)
	if small.Fingerprint() == StreamGNPConnected(100, 0.1, 5).Fingerprint() {
		t.Fatal("small GNPConnected went through the streaming path")
	}
	large := GNPConnected(streamGNPThreshold, 2.0/float64(streamGNPThreshold), 5)
	want := StreamGNPConnected(streamGNPThreshold, 2.0/float64(streamGNPThreshold), 5)
	if large.Fingerprint() != want.Fingerprint() {
		t.Fatalf("threshold-sized GNPConnected skipped the streaming path: m=%d, streamed m=%d", large.M(), want.M())
	}
}

// TestEdgesToCSRAscendingTargets pins the CSR assembly invariant the
// bitset slabs rely on: per-node target lists come out sorted.
func TestEdgesToCSRAscendingTargets(t *testing.T) {
	const n = 6
	// A node with neighbours on both sides: 3-0, 3-1, 3-4, 3-5 plus 0-5.
	c := edgesToCSR(n, []int64{0*n + 3, 0*n + 5, 1*n + 3, 3*n + 4, 3*n + 5})
	for v := 0; v < n; v++ {
		row := c.Targets[c.Offsets[v]:c.Offsets[v+1]]
		for i := 1; i < len(row); i++ {
			if row[i-1] >= row[i] {
				t.Fatalf("node %d targets not strictly ascending: %v", v, row)
			}
		}
	}
	if got := c.Targets[c.Offsets[3]:c.Offsets[4]]; !reflect.DeepEqual(got, []int32{0, 1, 4, 5}) {
		t.Fatalf("node 3 row = %v", got)
	}
}

// TestStreamGNPEdgeProbabilities: at the edges of p the streaming
// sampler gives GNPConnected's graph, the tree for p ≤ 0 or NaN and every
// pair for p ≥ 1, where it used to panic sizing its buffer (p < 0, NaN)
// or return only the tree (p ≥ 1).
func TestStreamGNPEdgeProbabilities(t *testing.T) {
	for _, n := range []int{0, 1, 2, 10, 100} {
		for _, p := range []float64{-1, -0.1, math.Inf(-1), math.NaN(), 0, 1, 1.5, math.Inf(1)} {
			g, want := StreamGNPConnected(n, p, 4), GNPConnected(n, p, 4)
			m := max(n-1, 0)
			if p >= 1 {
				m = n * (n - 1) / 2
			}
			if g.M() != m || g.Fingerprint() != want.Fingerprint() {
				t.Errorf("n=%d p=%g: m=%d fp=%#x, GNPConnected gives m=%d fp=%#x", n, p, g.M(), g.Fingerprint(), want.M(), want.Fingerprint())
			}
		}
	}
	for _, p := range []float64{-0.1, math.NaN()} {
		if g := GNPConnected(streamGNPThreshold, p, 4); g.M() != streamGNPThreshold-1 {
			t.Errorf("GNPConnected(%d, %g): m=%d, want the tree's %d", streamGNPThreshold, p, g.M(), streamGNPThreshold-1)
		}
	}
}
