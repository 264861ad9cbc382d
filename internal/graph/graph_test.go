package graph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"radiobcast/internal/nodeset"
)

func TestNewEmptyGraph(t *testing.T) {
	g := New(5)
	if g.N() != 5 || g.M() != 0 {
		t.Fatalf("N,M = %d,%d, want 5,0", g.N(), g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAddEdgeBasics(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 1)
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge {0,1} missing or asymmetric")
	}
	if g.HasEdge(0, 2) {
		t.Fatal("phantom edge {0,2}")
	}
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2", g.M())
	}
	if got := g.Neighbors(1); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Fatalf("Neighbors(1) = %v, want [0 2]", got)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAddEdgeIdempotent(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1 after duplicate AddEdge", g.M())
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on self-loop")
		}
	}()
	New(3).AddEdge(1, 1)
}

func TestOutOfRangeNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range node")
		}
	}()
	New(3).AddEdge(0, 3)
}

func TestDegreeAndMaxDegree(t *testing.T) {
	g := Star(6)
	if g.Degree(0) != 5 {
		t.Fatalf("hub degree = %d, want 5", g.Degree(0))
	}
	if g.Degree(3) != 1 {
		t.Fatalf("leaf degree = %d, want 1", g.Degree(3))
	}
	if g.MaxDegree() != 5 {
		t.Fatalf("MaxDegree = %d, want 5", g.MaxDegree())
	}
}

func TestEdgesSorted(t *testing.T) {
	g := New(4)
	g.AddEdge(3, 2)
	g.AddEdge(1, 0)
	g.AddEdge(0, 3)
	want := [][2]int{{0, 1}, {0, 3}, {2, 3}}
	if got := g.Edges(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Edges = %v, want %v", got, want)
	}
}

func TestCloneIndependent(t *testing.T) {
	g := Path(4)
	c := g.Clone()
	c.AddEdge(0, 3)
	if g.HasEdge(0, 3) {
		t.Fatal("Clone shares adjacency with original")
	}
	if c.M() != g.M()+1 {
		t.Fatalf("clone M = %d, want %d", c.M(), g.M()+1)
	}
}

// TestCloneKeepsItsOwnSlabCache pins that a clone shares the CSR arrays
// but not the slab form cached on them: the engine's Bits on a clone
// leaves the original without one, and the reverse.
func TestCloneKeepsItsOwnSlabCache(t *testing.T) {
	g := Grid(9, 9)
	c := g.Clone()
	gc, cc := g.Freeze(), c.Freeze()
	if gc == cc || &gc.Targets[0] != &cc.Targets[0] || &gc.Offsets[0] != &cc.Offsets[0] {
		t.Fatal("a clone must share the CSR arrays under a header of its own")
	}
	if c.Fingerprint() != g.Fingerprint() {
		t.Fatal("a clone fingerprints differently")
	}
	cc.Bits()
	if gc.bits.Load() != nil {
		t.Fatal("Bits on a clone cached the slab form on the original")
	}
	gc.Bits()
	if g.Clone().Freeze().bits.Load() != nil {
		t.Fatal("a clone inherited the original's slab form")
	}
}

// neighborSet returns v's neighbourhood as a nodeset.Set.
func neighborSet(g *Graph, v int) *nodeset.Set {
	s := nodeset.New(g.N())
	for _, w := range g.Neighbors(v) {
		s.Add(w)
	}
	return s
}

// neighborhood returns Γ(X): the set of nodes adjacent to at least one
// member of X (the paper's Γ; note Γ(X) may intersect X).
func neighborhood(g *Graph, x *nodeset.Set) *nodeset.Set {
	out := nodeset.New(g.N())
	x.ForEach(func(v int) { out.UnionWith(neighborSet(g, v)) })
	return out
}

func TestNeighborhood(t *testing.T) {
	g := Path(5) // 0-1-2-3-4
	x := nodeset.Of(5, 1, 2)
	got := neighborhood(g, x)
	// Γ({1,2}) = {0,1,2,3}
	want := nodeset.Of(5, 0, 1, 2, 3)
	if !got.Equal(want) {
		t.Fatalf("Γ({1,2}) = %v, want %v", got, want)
	}
}

// TestNeighborSetCacheInvalidation: an edit after a read reopens the
// edit buffer, so the next read sees the new edge.
func TestNeighborSetCacheInvalidation(t *testing.T) {
	g := Path(4)
	before := neighborSet(g, 0)
	if before.Count() != 1 {
		t.Fatalf("deg(0) = %d, want 1", before.Count())
	}
	g.AddEdge(0, 3)
	after := neighborSet(g, 0)
	if after.Count() != 2 {
		t.Fatalf("deg(0) after AddEdge = %d, want 2", after.Count())
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := Path(3)
	g.Freeze().Targets[0] = 2 // node 0 now lists 2, which does not list 0
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted corrupted graph")
	}
}

func TestQuickEdgeSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(40)
		g := New(n)
		for i := 0; i < 3*n; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v {
				g.AddEdge(u, v)
			}
		}
		if g.Validate() != nil {
			return false
		}
		for u := 0; u < n; u++ {
			for _, v := range g.Neighbors(u) {
				if !g.HasEdge(v, u) {
					return false
				}
			}
		}
		// Handshake lemma.
		sum := 0
		for v := 0; v < n; v++ {
			sum += g.Degree(v)
		}
		return sum == 2*g.M()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
