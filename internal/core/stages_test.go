package core

import (
	"testing"
	"testing/quick"

	"radiobcast/internal/domset"
	"radiobcast/internal/graph"
	"radiobcast/internal/nodeset"
)

func mustStages(t *testing.T, g *graph.Graph, source int) *Stages {
	t.Helper()
	st, err := BuildStages(g, source, BuildOptions{})
	if err != nil {
		t.Fatalf("BuildStages: %v", err)
	}
	return st
}

func TestStagesSingleNode(t *testing.T) {
	st := mustStages(t, graph.New(1), 0)
	if st.L != 1 {
		t.Fatalf("ℓ = %d, want 1", st.L)
	}
	if err := CheckStageInvariants(st); err != nil {
		t.Fatal(err)
	}
}

func TestStagesEdge(t *testing.T) {
	st := mustStages(t, graph.Path(2), 0)
	if st.L != 2 {
		t.Fatalf("ℓ = %d, want 2", st.L)
	}
	s1 := st.Stage(1)
	if !s1.Dom.Equal(nodeset.Of(2, 0)) || !s1.New.Equal(nodeset.Of(2, 1)) {
		t.Fatalf("stage 1 = %+v", s1)
	}
	if err := CheckStageInvariants(st); err != nil {
		t.Fatal(err)
	}
}

func TestStagesPath(t *testing.T) {
	// Path 0-1-2-3-4, source 0: one new node per stage, ℓ = 5.
	st := mustStages(t, graph.Path(5), 0)
	if st.L != 5 {
		t.Fatalf("ℓ = %d, want 5", st.L)
	}
	for i := 1; i <= 4; i++ {
		stage := st.Stage(i)
		if !stage.New.Equal(nodeset.Of(5, i)) {
			t.Fatalf("NEW_%d = %v, want {%d}", i, stage.New, i)
		}
		if !stage.Dom.Equal(nodeset.Of(5, i-1)) {
			t.Fatalf("DOM_%d = %v, want {%d}", i, stage.Dom, i-1)
		}
	}
	if err := CheckStageInvariants(st); err != nil {
		t.Fatal(err)
	}
}

func TestStagesStar(t *testing.T) {
	// Star with centre source: everything informed in stage 1, ℓ = 2.
	st := mustStages(t, graph.Star(6), 0)
	if st.L != 2 {
		t.Fatalf("ℓ = %d, want 2", st.L)
	}
	if st.Stage(1).New.Count() != 5 {
		t.Fatalf("NEW_1 = %v", st.Stage(1).New)
	}
}

func TestStagesStarLeafSource(t *testing.T) {
	// Star with a leaf source: hub at stage 1, other leaves at stage 2.
	st := mustStages(t, graph.Star(6), 3)
	if st.L != 3 {
		t.Fatalf("ℓ = %d, want 3", st.L)
	}
	if !st.Stage(1).New.Equal(nodeset.Of(6, 0)) {
		t.Fatalf("NEW_1 = %v, want {0}", st.Stage(1).New)
	}
	if st.Stage(2).New.Count() != 4 {
		t.Fatalf("NEW_2 = %v", st.Stage(2).New)
	}
}

func TestStagesFourCycle(t *testing.T) {
	// C4, source 0: neighbours 1,3 at stage 1; DOM_2 must be a minimal
	// dominating set of {2}, i.e. exactly one of {1,3}; node 2 then has a
	// unique DOM_2 neighbour and is informed at stage 2.
	st := mustStages(t, graph.Cycle(4), 0)
	if st.L != 3 {
		t.Fatalf("ℓ = %d, want 3", st.L)
	}
	dom2 := st.Stage(2).Dom
	if dom2.Count() != 1 {
		t.Fatalf("DOM_2 = %v, want a singleton", dom2)
	}
	if !st.Stage(2).New.Equal(nodeset.Of(4, 2)) {
		t.Fatalf("NEW_2 = %v, want {2}", st.Stage(2).New)
	}
	if err := CheckStageInvariants(st); err != nil {
		t.Fatal(err)
	}
}

func TestStagesFigure1(t *testing.T) {
	// Golden structure derived by hand for the Figure 1 reconstruction.
	g := graph.Figure1()
	st := mustStages(t, g, graph.Figure1Source)
	if st.L != 5 {
		t.Fatalf("ℓ = %d, want 5", st.L)
	}
	wantDom := []*nodeset.Set{
		nodeset.Of(13, 0),
		nodeset.Of(13, 1, 2, 3),
		nodeset.Of(13, 2, 3, 4, 5, 6),
		nodeset.Of(13, 3),
	}
	wantNew := []*nodeset.Set{
		nodeset.Of(13, 1, 2, 3),
		nodeset.Of(13, 4, 5, 6),
		nodeset.Of(13, 7, 8, 9, 10, 11),
		nodeset.Of(13, 12),
	}
	for i := 1; i <= 4; i++ {
		if !st.Stage(i).Dom.Equal(wantDom[i-1]) {
			t.Errorf("DOM_%d = %v, want %v", i, st.Stage(i).Dom, wantDom[i-1])
		}
		if !st.Stage(i).New.Equal(wantNew[i-1]) {
			t.Errorf("NEW_%d = %v, want %v", i, st.Stage(i).New, wantNew[i-1])
		}
	}
	if err := CheckStageInvariants(st); err != nil {
		t.Fatal(err)
	}
}

func TestStagesAllFamiliesAllOrders(t *testing.T) {
	for _, name := range graph.FamilyNames() {
		g := graph.Families[name](24)
		for _, order := range domset.Orders {
			st, err := BuildStages(g, 0, BuildOptions{Order: order})
			if err != nil {
				t.Fatalf("%s/%v: %v", name, order, err)
			}
			if err := CheckStageInvariants(st); err != nil {
				t.Fatalf("%s/%v: %v", name, order, err)
			}
		}
	}
}

func TestStagesQuickRandomGraphs(t *testing.T) {
	f := func(seed int64) bool {
		n := 2 + int(uint64(seed)%60)
		g := graph.GNPConnected(n, 0.15, seed)
		src := int(uint64(seed) % uint64(n))
		st, err := BuildStages(g, src, BuildOptions{})
		if err != nil {
			return false
		}
		return CheckStageInvariants(st) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestStagesSkipMinimalityStalls(t *testing.T) {
	// On C4 with source 0, keeping both candidates {1,3} as DOM_2 makes
	// node 2 adjacent to two dominators: NEW_2 is empty and the
	// construction stalls — demonstrating that minimality is what powers
	// Lemma 2.4.
	_, err := BuildStages(graph.Cycle(4), 0, BuildOptions{SkipMinimality: true})
	if err == nil {
		t.Fatal("expected stall with SkipMinimality on C4")
	}
}

func TestStagesRestrictedStallsOnRadius2(t *testing.T) {
	// The conclusion's literal hint (DOM_i ⊆ DOM_{i−1}) cannot reach
	// distance-2 nodes: DOM collapses to {source}, which does not dominate
	// the distance-2 frontier. Documented in EXPERIMENTS.md §ONEBIT.
	_, err := BuildStages(graph.Path(3), 0, BuildOptions{Restricted: true})
	if err == nil {
		t.Fatal("expected restricted construction to stall on P3")
	}
}

func TestStageAccessorPanics(t *testing.T) {
	st := mustStages(t, graph.Path(3), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range stage")
		}
	}()
	st.Stage(99)
}

func TestDomUnion(t *testing.T) {
	st := mustStages(t, graph.Path(4), 0)
	// DOM_1..DOM_3 = {0},{1},{2}.
	if !st.DomUnion().Equal(nodeset.Of(4, 0, 1, 2)) {
		t.Fatalf("DomUnion = %v", st.DomUnion())
	}
}
