// Every connected graph on at most seven nodes, one per isomorphism
// class, run through every shipped scheme from every source.
package radiobcast_test

import (
	"cmp"
	"context"
	"errors"
	"math/bits"
	"slices"
	"testing"

	"radiobcast"
	"radiobcast/internal/graph"
)

// smallGraph is a graph on at most 8 nodes: adj[v] is v's neighbour set
// as a bit mask.
type smallGraph struct {
	n   int
	adj [8]uint8
}

// canonicalKey is the smallest upper-triangle edge mask of g over the
// node orders that sort the nodes by degree. An isomorphism maps those
// orders of one graph onto those of the other, so isomorphic graphs get
// one key, and a mask spells its graph, so other graphs get others.
func (g smallGraph) canonicalKey() uint64 {
	deg := func(v int) int { return bits.OnesCount8(g.adj[v]) }
	order := make([]int, g.n)
	for v := range order {
		order[v] = v
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(deg(a), deg(b)) })
	// end[p] ends the run of equal degrees that holds position p; nodes
	// only swap within their run.
	end := make([]int, g.n)
	for p := g.n - 1; p >= 0; p-- {
		end[p] = p + 1
		if p+1 < g.n && deg(order[p]) == deg(order[p+1]) {
			end[p] = end[p+1]
		}
	}
	best := ^uint64(0)
	var permute func(p int)
	permute = func(p int) {
		if p == g.n {
			var mask uint64
			bit := 0
			for i := range g.n {
				for j := i + 1; j < g.n; j++ {
					mask |= uint64(g.adj[order[i]]>>order[j]&1) << bit
					bit++
				}
			}
			best = min(best, mask)
			return
		}
		for i := p; i < end[p]; i++ {
			order[p], order[i] = order[i], order[p]
			permute(p + 1)
			order[p], order[i] = order[i], order[p]
		}
	}
	permute(0)
	return best
}

// graph returns g as a Graph.
func (g smallGraph) graph() *graph.Graph {
	out := graph.New(g.n)
	for u := range g.n {
		for v := u + 1; v < g.n; v++ {
			if g.adj[u]>>v&1 == 1 {
				out.AddEdge(u, v)
			}
		}
	}
	return out
}

// connectedGraphs returns, at index n, every connected graph on n nodes
// for n = 1..maxN (maxN ≤ 8), one per isomorphism class. Each graph on n
// nodes is one on n − 1 nodes plus a node joined to a non-empty subset
// of them: removing a leaf of a spanning tree leaves a connected graph.
func connectedGraphs(maxN int) [][]smallGraph {
	levels := [][]smallGraph{nil, {{n: 1}}}
	for n := 2; n <= maxN; n++ {
		seen := map[uint64]bool{}
		var level []smallGraph
		for _, g := range levels[n-1] {
			for s := 1; s < 1<<(n-1); s++ {
				h := g
				h.n, h.adj[n-1] = n, uint8(s)
				for v := range n - 1 {
					h.adj[v] |= uint8(s>>v&1) << (n - 1)
				}
				if k := h.canonicalKey(); !seen[k] {
					seen[k] = true
					level = append(level, h)
				}
			}
		}
		levels = append(levels, level)
	}
	return levels
}

func TestConnectedGraphCounts(t *testing.T) {
	want := []int{0, 1, 1, 2, 6, 21, 112, 853} // OEIS A001349
	levels := connectedGraphs(7)
	for n := 1; n <= 7; n++ {
		if got := len(levels[n]); got != want[n] {
			t.Errorf("%d connected graphs on %d nodes, want %d", got, n, want[n])
		}
	}
}

// TestEverySmallConnectedGraph runs every shipped scheme on every
// connected graph with 2 ≤ n ≤ 7 from every source, barb from every
// (coordinator, source) pair, through one Session per graph. Every run
// must pass Verify, except flooding's, whose failures are counted; only
// gjp and onebit may find no labeling. b and back must reach Theorem
// 2.9's 2n − 3 at every n, and back's t′ − t must reach n − 1, so a
// loosened bound or a broken run shows. Each scheme must label each
// graph once per anchor: n times where its labels depend on the source
// or the coordinator, once where they depend on no node.
func TestEverySmallConnectedGraph(t *testing.T) {
	ctx := context.Background()
	levels := connectedGraphs(7)
	floodFails, noLabeling := 0, map[string]int{}
	for n := 2; n <= 7; n++ {
		maxB, maxBack, maxGap := 0, 0, 0
		for _, sg := range levels[n] {
			net := radiobcast.NewNetwork(sg.graph())
			sess := radiobcast.NewSession()
			for _, scheme := range builtins {
				coordinators := 1
				if scheme == "barb" {
					coordinators = n
				}
				before := sess.CacheMisses()
				for r := range coordinators {
					for src := range n {
						out, err := sess.Run(ctx, net, scheme, radiobcast.WithSource(src), radiobcast.WithCoordinator(r))
						if errors.Is(err, radiobcast.ErrNoLabeling) && (scheme == "gjp" || scheme == "onebit") {
							noLabeling[scheme]++
							continue
						}
						if err != nil {
							t.Fatalf("%s on %v (r=%d) from %d: %v", scheme, net.Graph.Edges(), r, src, err)
						}
						if err := radiobcast.Verify(out); err != nil {
							if scheme != "flooding" {
								t.Fatalf("%s on %v (r=%d) from %d: %v", scheme, net.Graph.Edges(), r, src, err)
							}
							floodFails++
						}
						switch scheme {
						case "b":
							maxB = max(maxB, out.CompletionRound)
						case "back":
							maxBack = max(maxBack, out.CompletionRound)
							maxGap = max(maxGap, out.AckRound-out.CompletionRound)
						}
					}
				}
				want := uint64(n)
				if scheme == "roundrobin" || scheme == "colorrobin" || scheme == "flooding" {
					want = 1
				}
				if got := sess.CacheMisses() - before; got != want {
					t.Fatalf("%s on %v: %d labelings, want one per anchor, %d", scheme, net.Graph.Edges(), got, want)
				}
			}
			sess.Close(ctx)
		}
		if maxB != 2*n-3 || maxBack != 2*n-3 || maxGap != n-1 {
			t.Errorf("n=%d: largest completion b %d, back %d (want 2n−3 = %d); largest t′−t %d (want n−1 = %d)",
				n, maxB, maxBack, 2*n-3, maxGap, n-1)
		}
	}
	if floodFails == 0 {
		t.Error("flooding passed Verify on every run, but it is not universal (C4 defeats it)")
	}
	t.Logf("flooding failed Verify in %d runs; no labeling: %v", floodFails, noLabeling)
}
