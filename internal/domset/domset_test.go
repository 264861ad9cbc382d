package domset_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"radiobcast/internal/domset"
	"radiobcast/internal/domset/domsettest"
	"radiobcast/internal/graph"
	"radiobcast/internal/nodeset"
)

func TestMinimalSubsetStar(t *testing.T) {
	// Star: hub 0, leaves 1..4. Candidates {0}, targets = leaves.
	g := graph.Star(5)
	cand := nodeset.Of(5, 0)
	targets := nodeset.Of(5, 1, 2, 3, 4)
	dom, err := domsettest.MinimalSubset(g, cand, targets, domset.Ascending)
	if err != nil {
		t.Fatal(err)
	}
	if !dom.Equal(nodeset.Of(5, 0)) {
		t.Fatalf("dom = %v, want {0}", dom)
	}
}

func TestMinimalSubsetDropsRedundant(t *testing.T) {
	// C4: 0-1-2-3-0, source 0. Candidates {1,3} both dominate target {2}.
	// Minimality must keep exactly one.
	g := graph.Cycle(4)
	cand := nodeset.Of(4, 1, 3)
	targets := nodeset.Of(4, 2)
	dom, err := domsettest.MinimalSubset(g, cand, targets, domset.Ascending)
	if err != nil {
		t.Fatal(err)
	}
	if dom.Count() != 1 {
		t.Fatalf("dom = %v, want singleton", dom)
	}
	if !dom.Has(3) {
		// ascending prune removes 1 first (2 still covered by 3)
		t.Fatalf("ascending prune should keep node 3, got %v", dom)
	}
	dom2, err := domsettest.MinimalSubset(g, cand, targets, domset.Descending)
	if err != nil {
		t.Fatal(err)
	}
	if !dom2.Has(1) {
		t.Fatalf("descending prune should keep node 1, got %v", dom2)
	}
}

func TestMinimalSubsetDropsUseless(t *testing.T) {
	// A candidate with no target neighbours must be dropped even if it
	// could never be pruned by the minimality pass.
	g := graph.Path(4) // 0-1-2-3
	cand := nodeset.Of(4, 0, 2)
	targets := nodeset.Of(4, 3)
	dom, err := domsettest.MinimalSubset(g, cand, targets, domset.Ascending)
	if err != nil {
		t.Fatal(err)
	}
	if !dom.Equal(nodeset.Of(4, 2)) {
		t.Fatalf("dom = %v, want {2}", dom)
	}
}

func TestMinimalSubsetUndominated(t *testing.T) {
	g := graph.Path(4)
	cand := nodeset.Of(4, 0)
	targets := nodeset.Of(4, 3)
	if _, err := domsettest.MinimalSubset(g, cand, targets, domset.Ascending); err == nil {
		t.Fatal("expected error for undominated target")
	}
}

func TestMinimalSubsetEmptyTargets(t *testing.T) {
	g := graph.Path(4)
	dom, err := domsettest.MinimalSubset(g, nodeset.Of(4, 1, 2), nodeset.New(4), domset.Ascending)
	if err != nil {
		t.Fatal(err)
	}
	if !dom.Empty() {
		t.Fatalf("dom = %v, want empty for empty targets", dom)
	}
}

func TestDominates(t *testing.T) {
	g := graph.Path(5)
	if !domset.Dominates(g, nodeset.Of(5, 1, 3), nodeset.Of(5, 0, 2, 4)) {
		t.Fatal("expected domination")
	}
	if domset.Dominates(g, nodeset.Of(5, 1), nodeset.Of(5, 4)) {
		t.Fatal("unexpected domination")
	}
	if !domset.Dominates(g, nodeset.New(5), nodeset.New(5)) {
		t.Fatal("empty set should dominate empty targets")
	}
}

func TestPrivateNeighbor(t *testing.T) {
	// Path 0-1-2-3-4; dom {1,3}, targets {0,2,4}.
	g := graph.Path(5)
	dom := nodeset.Of(5, 1, 3)
	targets := nodeset.Of(5, 0, 2, 4)
	if got := domset.PrivateNeighbor(g, dom, targets, 1); got != 0 {
		// 2 is adjacent to both 1 and 3, so 1's private neighbour is 0
		t.Fatalf("private(1) = %d, want 0", got)
	}
	if got := domset.PrivateNeighbor(g, dom, targets, 3); got != 4 {
		t.Fatalf("private(3) = %d, want 4", got)
	}
}

func TestIsMinimal(t *testing.T) {
	g := graph.Cycle(4)
	targets := nodeset.Of(4, 2)
	if domset.IsMinimal(g, nodeset.Of(4, 1, 3), targets) {
		t.Fatal("non-minimal set reported minimal")
	}
	if !domset.IsMinimal(g, nodeset.Of(4, 1), targets) {
		t.Fatal("minimal set reported non-minimal")
	}
	if domset.IsMinimal(g, nodeset.Of(4, 0), targets) {
		t.Fatal("non-dominating set reported minimal")
	}
}

func TestQuickMinimalInvariants(t *testing.T) {
	// For random graphs and random candidate/target splits where the
	// candidates dominate the targets, MinimalSubset must (1) dominate,
	// (2) be minimal, (3) be a subset of the candidates — for every order.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(50)
		g := graph.GNPConnected(n, 0.25, seed)
		// Candidates: random half; targets: nodes dominated by candidates.
		cand := nodeset.New(n)
		for v := 0; v < n; v++ {
			if r.Intn(2) == 0 {
				cand.Add(v)
			}
		}
		targets := nodeset.New(n)
		for v := 0; v < n; v++ {
			if cand.Has(v) {
				continue
			}
			for _, w := range g.Neighbors(v) {
				if cand.Has(w) {
					targets.Add(v)
					break
				}
			}
		}
		for _, order := range domset.Orders {
			dom, err := domsettest.MinimalSubset(g, cand, targets, order)
			if err != nil {
				return false
			}
			if !dom.SubsetOf(cand) {
				return false
			}
			if !domset.IsMinimal(g, dom, targets) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestOrderStrings(t *testing.T) {
	for _, o := range domset.Orders {
		if o.String() == "" {
			t.Fatal("empty order name")
		}
	}
}
