package core

import (
	"slices"
	"testing"

	"radiobcast/internal/graph"
)

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
		doms := make([][]int32, st.NumStored())
		news := make([][]int32, st.NumStored())
		for i := range doms {
			dom, nw := st.Lists(i + 1)
			doms[i], news[i] = slices.Clone(dom), slices.Clone(nw)
		}
		got, err := RebuildStages(g, st.Source, st.L, st.Restricted, st.Stalled, doms, news)
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

// TestRebuildStagesRejectsBadInput ensures untrusted stage lists fail with
// errors, not panics.
func TestRebuildStagesRejectsBadInput(t *testing.T) {
	g := graph.Path(5)
	if _, err := RebuildStages(g, 9, 2, false, 0, [][]int32{{0}}, [][]int32{{1}}); err == nil {
		t.Fatal("out-of-range source accepted")
	}
	if _, err := RebuildStages(g, 0, 2, false, 0, [][]int32{{0}, {1}}, [][]int32{{1}}); err == nil {
		t.Fatal("mismatched list lengths accepted")
	}
	if _, err := RebuildStages(g, 0, 2, false, 0, [][]int32{{0}}, [][]int32{{99}}); err == nil {
		t.Fatal("out-of-range stage node accepted")
	}
	if _, err := RebuildStages(g, 0, 1, false, 0, nil, nil); err == nil {
		t.Fatal("empty stage lists accepted")
	}
}

// TestRebuildStagesNormalizesLists pins what RebuildStages does with lists
// it did not write itself: an ascending list is kept as it is (no copy),
// and any other is sorted and deduplicated into the ascending,
// duplicate-free form every delta consumer assumes.
func TestRebuildStagesNormalizesLists(t *testing.T) {
	g := graph.Path(6)
	sorted := []int32{1, 3, 4}
	doms := [][]int32{sorted, {4, 2, 2, 0, 4}}
	news := [][]int32{{5, 5}, {}}
	st, err := RebuildStages(g, 0, 3, false, 0, doms, news)
	if err != nil {
		t.Fatal(err)
	}
	dom1, new1 := st.Lists(1)
	if &dom1[0] != &sorted[0] {
		t.Fatal("an ascending list was copied")
	}
	dom2, new2 := st.Lists(2)
	for _, c := range []struct {
		got, want []int32
	}{{dom1, []int32{1, 3, 4}}, {new1, []int32{5}}, {dom2, []int32{0, 2, 4}}, {new2, nil}} {
		if !slices.Equal(c.got, c.want) {
			t.Fatalf("rebuilt list %v, want %v", c.got, c.want)
		}
	}
	if _, err := RebuildStages(g, 0, 2, false, 0, [][]int32{{-1}}, [][]int32{{1}}); err == nil {
		t.Fatal("negative stage node accepted")
	}
}
