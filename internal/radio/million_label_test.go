// Labeling memory tests: the million-node *labeling* smoke tests — the
// preprocessing-side companion of TestMillionNodeSmoke — and the heap a
// cached labeling retains. This file is an external test package so it
// can drive the public facade (Session, RunLabeled) over the same graphs
// the engine scale tests use without an import cycle.
package radio_test

import (
	"context"
	"runtime"
	"testing"

	"radiobcast"
	"radiobcast/internal/graph"
)

// labelingHeapCeiling bounds the heap growth one million-node labeling is
// allowed to retain. The word-parallel builder stores only the DOM/NEW
// deltas — Θ(n + Σ|DOM_i|+|NEW_i|) — plus the labels themselves; 512 MiB
// is an order of magnitude of slack on top of that, while the former
// five-full-sets-per-stage snapshots would have needed Θ(n·ℓ) bits
// (≈ 78 TiB for the 10⁶-node path) and could not fit at any ceiling.
const labelingHeapCeiling = 512 << 20

// heapInUse reads the live heap after two collections: the first moves
// sync.Pool contents to the pools' victim caches, the second frees them,
// so a Sim pooled (or not) during a labeling does not count as retained.
// The race detector drops a random share of Pool Puts, so without the
// second collection the readings depend on which Puts it kept.
func heapInUse() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// labelUnderCeiling labels net with scheme b and fails the test if the
// retained heap delta exceeds the ceiling.
func labelUnderCeiling(t *testing.T, net *radiobcast.Network, tag string) *radiobcast.Labeling {
	t.Helper()
	before := heapInUse()
	l, err := radiobcast.LabelNetwork(net, "b")
	if err != nil {
		t.Fatalf("%s: label: %v", tag, err)
	}
	after := heapInUse()
	if after > before && after-before > labelingHeapCeiling {
		t.Fatalf("%s: labeling retained %d MiB, ceiling %d MiB",
			tag, (after-before)>>20, labelingHeapCeiling>>20)
	}
	return l
}

// TestMillionNodeLabelingSmoke labels a streamed million-node G(n,p)
// graph end-to-end under an explicit memory ceiling, then RunLabels it
// through a Session and requires full broadcast coverage. Before the
// delta-compressed stage storage and the word-parallel builder this was
// infeasible: the scalar pipeline's Θ(n²) set snapshots and node-at-a-
// time pruning could not label graphs the PR 8 engine could already run.
func TestMillionNodeLabelingSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("million-node labeling smoke is a scale test")
	}
	const n = 1_000_000
	net, err := radiobcast.Family("gnp-sparse", n)
	if err != nil {
		t.Fatal(err)
	}
	l := labelUnderCeiling(t, net, "gnp-sparse")
	if l.Stages == nil || l.Stages.L < 2 {
		t.Fatalf("implausible stage count ℓ = %v", l.Stages)
	}

	sess := radiobcast.NewSession()
	defer sess.Close(nil)
	out, err := sess.RunLabeled(context.Background(), l)
	if err != nil {
		t.Fatalf("run labeled: %v", err)
	}
	if !out.AllInformed {
		t.Fatalf("broadcast with λ labels reached coverage %.4f, want 1", out.Coverage)
	}
	if err := radiobcast.Verify(out); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

// TestMillionNodePathLabeling labels the deep extreme: a million-node
// path, where ℓ = n and the old per-stage snapshots were Θ(n²) bits.
// With delta storage the whole structure is Θ(n), so this completes
// under the same ceiling as the shallow G(n,p) case.
func TestMillionNodePathLabeling(t *testing.T) {
	if testing.Short() {
		t.Skip("million-node labeling smoke is a scale test")
	}
	const n = 1_000_000
	net, err := radiobcast.Family("path", n)
	if err != nil {
		t.Fatal(err)
	}
	l := labelUnderCeiling(t, net, "path")
	if l.Stages.L != n {
		t.Fatalf("path ℓ = %d, want %d", l.Stages.L, n)
	}
}

// labelingRetainedCeiling bounds the heap one λ labeling of a 4096-node
// G(n, 6/n) may retain: its 4-byte labels and DOM/NEW lists take about
// 41 KiB. The graph's slab form, about 390 KiB more, is the labeling
// kernel's scratch and must not stay behind on the graph, as it did while
// the kernel took it from the CSR's cache (517 KiB per labeling); string
// labels and the stay picks kept 113 KiB.
const labelingRetainedCeiling = 64 << 10

// deepLabelingRetainedCeiling bounds the heap one λ labeling of a
// 4096-node path (ℓ = n) may retain: its labels and the 2(n−1) stage
// nodes with their offsets take 16 + 32 + 32 KiB. A slice header and its
// size-class slack per DOM_i and NEW_i list made it 272 KiB.
const deepLabelingRetainedCeiling = 128 << 10

// retainedPerLabeling labels every network with scheme and returns the
// labelings and the heap each retains on average.
func retainedPerLabeling(t *testing.T, nets []*radiobcast.Network, scheme string) ([]*radiobcast.Labeling, uint64) {
	t.Helper()
	labelings := make([]*radiobcast.Labeling, len(nets))
	before := heapInUse()
	for i, net := range nets {
		l, err := radiobcast.LabelNetwork(net, scheme)
		if err != nil {
			t.Fatalf("%s on graph %d: label: %v", scheme, i, err)
		}
		labelings[i] = l
	}
	after := heapInUse()
	if after < before {
		return labelings, 0
	}
	return labelings, (after - before) / uint64(len(nets))
}

// TestLabelingRetainsNoSlabForm labels frozen 4096-node G(n, 6/n) graphs
// and paths and bounds the heap the labelings retain, then runs and
// verifies one of them, so the engine still builds its own slab form for
// a labeled graph.
func TestLabelingRetainsNoSlabForm(t *testing.T) {
	const n, graphs = 4096, 20
	for _, c := range []struct {
		name, scheme string
		build        func(i int) *graph.Graph
		ceiling      uint64
	}{
		{"gnp-sparse/b", "b", func(i int) *graph.Graph { return graph.StreamGNPConnected(n, 6.0/n, int64(i+1)) }, labelingRetainedCeiling},
		{"path/b", "b", func(int) *graph.Graph { return graph.Path(n) }, deepLabelingRetainedCeiling},
		{"path/back", "back", func(int) *graph.Graph { return graph.Path(n) }, deepLabelingRetainedCeiling},
	} {
		t.Run(c.name, func(t *testing.T) {
			nets := make([]*radiobcast.Network, graphs)
			for i := range nets {
				g := c.build(i)
				g.Freeze()
				nets[i] = radiobcast.NewNetwork(g)
			}
			labelings, per := retainedPerLabeling(t, nets, c.scheme)
			t.Logf("each labeling retained %d B", per)
			if per > c.ceiling {
				t.Fatalf("each labeling retained %d KiB, ceiling %d KiB", per>>10, c.ceiling>>10)
			}

			out, err := radiobcast.RunLabeled(labelings[0], radiobcast.WithMessage("m"))
			if err != nil {
				t.Fatalf("run labeled: %v", err)
			}
			if err := radiobcast.Verify(out); err != nil {
				t.Fatalf("verify: %v", err)
			}
			runtime.KeepAlive(labelings)
		})
	}
}

// TestLabelingAllocsDoNotGrowWithDepth requires a λ labeling of a
// 4096-node path (ℓ = 4096) to make at most 32 more allocations than one
// of a 64-node path. Stage lists that each took an allocation of their
// own made a b labeling of the longer path cost 12,466 allocations
// against 228.
func TestLabelingAllocsDoNotGrowWithDepth(t *testing.T) {
	for _, scheme := range []string{"b", "back"} {
		var allocs [2]float64
		for i, n := range []int{64, 4096} {
			net, err := radiobcast.Family("path", n)
			if err != nil {
				t.Fatal(err)
			}
			net.Graph.Freeze()
			allocs[i] = testing.AllocsPerRun(10, func() {
				if _, err := radiobcast.LabelNetwork(net, scheme); err != nil {
					t.Fatal(err)
				}
			})
		}
		t.Logf("%s: %v allocations on path/64, %v on path/4096", scheme, allocs[0], allocs[1])
		if allocs[1] > allocs[0]+32 {
			t.Errorf("%s labeling makes %v allocations on path/4096, %v on path/64", scheme, allocs[1], allocs[0])
		}
	}
}

// oneBitRetainedCeiling bounds the heap one 1-bit labeling of a 4096-node
// graph may retain: its 4-byte labels take 16 KiB. gjp's self-check and
// onebit's search run the engine, which caches the graph's slab form, so
// both run on a clone and leave none on the labeled graph; with the slab
// form left behind and string labels, a gjp labeling of a random tree
// retained 178 KiB and an onebit labeling of a path 140 KiB.
const oneBitRetainedCeiling = 32 << 10

// TestOneBitLabelingsRetainNoSlabForm bounds the heap gjp labelings of
// 4096-node random trees and onebit labelings of 4096-node paths retain.
func TestOneBitLabelingsRetainNoSlabForm(t *testing.T) {
	const n, graphs = 4096, 20
	for _, c := range []struct {
		scheme string
		build  func(i int) *graph.Graph
	}{
		{"gjp", func(i int) *graph.Graph { return graph.RandomTree(n, int64(i+1)) }},
		{"onebit", func(int) *graph.Graph { return graph.Path(n) }},
	} {
		t.Run(c.scheme, func(t *testing.T) {
			nets := make([]*radiobcast.Network, graphs)
			for i := range nets {
				g := c.build(i)
				g.Freeze()
				nets[i] = radiobcast.NewNetwork(g)
			}
			// A first labeling fills the engine's pooled run buffers,
			// which outlive it; label a spare graph so they are in
			// place before the measurement starts.
			if _, err := radiobcast.LabelNetwork(radiobcast.NewNetwork(c.build(graphs)), c.scheme); err != nil {
				t.Fatal(err)
			}
			labelings, per := retainedPerLabeling(t, nets, c.scheme)
			if per > oneBitRetainedCeiling {
				t.Fatalf("each %s labeling retained %d KiB, ceiling %d KiB", c.scheme, per>>10, oneBitRetainedCeiling>>10)
			}
			runtime.KeepAlive(labelings)
		})
	}
}
