package core

import (
	"slices"
	"testing"

	"radiobcast/internal/graph"
)

// flatten lays lists out in the flat form RebuildStages takes: their
// nodes back to back in a fresh array, and the offset where each list
// ends after a leading 0.
func flatten(lists ...[]int32) (off, nodes []int32) {
	off = []int32{0}
	for _, list := range lists {
		nodes = append(nodes, list...)
		off = append(off, int32(len(nodes)))
	}
	return off, nodes
}

// rebuild is RebuildStages of a standard, unstalled construction over
// lists given in wire order: DOM_1, NEW_1, DOM_2, NEW_2, ….
func rebuild(g *graph.Graph, source, l int, lists ...[]int32) (*Stages, error) {
	off, nodes := flatten(lists...)
	return RebuildStages(g, source, l, false, 0, off, nodes)
}

// TestRebuildStagesMatchesConstruction pins the stage codec contract: the
// DOM/NEW lists plus the graph determine the whole structure — rebuilding
// from copies of the Lists of every stage reproduces every one of the
// five sets of every stage, set-for-set.
func TestRebuildStagesMatchesConstruction(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Figure1(),
		graph.Path(17),
		graph.Grid(5, 5),
		graph.Complete(6),
	} {
		st, err := BuildStages(g, 0, BuildOptions{})
		if err != nil {
			t.Fatalf("%v: %v", g, err)
		}
		var lists [][]int32
		for i := 1; i <= st.NumStored(); i++ {
			dom, nw := st.Lists(i)
			lists = append(lists, dom, nw)
		}
		off, nodes := flatten(lists...)
		got, err := RebuildStages(g, st.Source, st.L, st.Restricted, st.Stalled, off, nodes)
		if err != nil {
			t.Fatalf("%v: rebuild: %v", g, err)
		}
		if got.L != st.L || got.NumStored() != st.NumStored() {
			t.Fatalf("%v: rebuilt ℓ=%d/%d stages, want ℓ=%d/%d", g, got.L, got.NumStored(), st.L, st.NumStored())
		}
		for i := 1; i <= st.NumStored(); i++ {
			a, b := st.Stage(i), got.Stage(i)
			if !a.Inf.Equal(b.Inf) || !a.Uninf.Equal(b.Uninf) || !a.Frontier.Equal(b.Frontier) ||
				!a.Dom.Equal(b.Dom) || !a.New.Equal(b.New) {
				t.Fatalf("%v: stage %d differs after rebuild", g, i)
			}
		}
	}
}

// TestRebuildStagesRejectsBadInput ensures untrusted stage lists and
// offsets fail with errors, not panics.
func TestRebuildStagesRejectsBadInput(t *testing.T) {
	g := graph.Path(5)
	if _, err := rebuild(g, 9, 2, []int32{0}, []int32{1}); err == nil {
		t.Fatal("out-of-range source accepted")
	}
	if _, err := rebuild(g, 0, 2, []int32{0}, []int32{1}, []int32{1}); err == nil {
		t.Fatal("a DOM list without its NEW list accepted")
	}
	if _, err := rebuild(g, 0, 2, []int32{0}, []int32{99}); err == nil {
		t.Fatal("out-of-range stage node accepted")
	}
	if _, err := RebuildStages(g, 0, 1, false, 0, nil, nil); err == nil {
		t.Fatal("empty stage lists accepted")
	}
	for _, off := range [][]int32{{1, 1, 2}, {0, 2, 1}, {0, 1, 3}, {0, 1, 1}, {0, -1, 2}} {
		if _, err := RebuildStages(g, 0, 2, false, 0, off, []int32{0, 1}); err == nil {
			t.Fatalf("offsets %v over 2 nodes accepted", off)
		}
	}
}

// TestRebuildStagesNormalizesLists pins what RebuildStages does with lists
// it did not write itself: lists that are all ascending are kept as they
// are (no copy), and any other is sorted and deduplicated into the
// ascending, duplicate-free form every delta consumer assumes, in place;
// when an early list loses duplicates, the lists after it move down
// within the flat array.
func TestRebuildStagesNormalizesLists(t *testing.T) {
	g := graph.Path(6)
	check := func(st *Stages, nodes []int32, want [][]int32) {
		t.Helper()
		if st.NumStored() != len(want)/2 {
			t.Fatalf("rebuilt %d stages, want %d", st.NumStored(), len(want)/2)
		}
		for i := 1; i <= st.NumStored(); i++ {
			dom, nw := st.Lists(i)
			if !slices.Equal(dom, want[2*i-2]) || !slices.Equal(nw, want[2*i-1]) {
				t.Fatalf("stage %d lists %v %v, want %v %v", i, dom, nw, want[2*i-2], want[2*i-1])
			}
		}
		if dom1, _ := st.Lists(1); &dom1[0] != &nodes[0] {
			t.Fatal("the lists were copied out of the input array")
		}
	}

	sorted := [][]int32{{1, 3, 4}, {5}, {0, 2, 4}, {}}
	off, nodes := flatten(sorted...)
	st, err := RebuildStages(g, 0, 3, false, 0, off, nodes)
	if err != nil {
		t.Fatal(err)
	}
	check(st, nodes, sorted)
	if _, nw := st.Lists(1); &nw[0] != &nodes[3] {
		t.Fatal("an ascending list moved")
	}

	off, nodes = flatten([]int32{0, 0}, []int32{1, 3}, []int32{4, 2, 2, 0, 4}, nil, []int32{5}, []int32{3, 1})
	st, err = RebuildStages(g, 0, 4, false, 0, off, nodes)
	if err != nil {
		t.Fatal(err)
	}
	check(st, nodes, [][]int32{{0}, {1, 3}, {0, 2, 4}, nil, {5}, {1, 3}})

	if _, err := rebuild(g, 0, 2, []int32{-1}, []int32{1}); err == nil {
		t.Fatal("negative stage node accepted")
	}
}
