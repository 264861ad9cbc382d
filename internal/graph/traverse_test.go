package graph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestBFSPath(t *testing.T) {
	g := Path(5)
	want := []int{0, 1, 2, 3, 4}
	if got := g.BFS(0); !reflect.DeepEqual(got, want) {
		t.Fatalf("BFS(0) = %v, want %v", got, want)
	}
	want = []int{2, 1, 0, 1, 2}
	if got := g.BFS(2); !reflect.DeepEqual(got, want) {
		t.Fatalf("BFS(2) = %v, want %v", got, want)
	}
}

func TestBFSDisconnected(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	d := g.BFS(0)
	if d[2] != -1 || d[3] != -1 {
		t.Fatalf("unreachable distances = %v, want -1s", d[2:])
	}
	if g.IsConnected() {
		t.Fatal("disconnected graph reported connected")
	}
}

func TestEccentricityRadiusDiameter(t *testing.T) {
	g := Path(5)
	if e := g.Eccentricity(0); e != 4 {
		t.Fatalf("ecc(0) = %d, want 4", e)
	}
	if e := g.Eccentricity(2); e != 2 {
		t.Fatalf("ecc(2) = %d, want 2", e)
	}
	if d := g.Diameter(); d != 4 {
		t.Fatalf("diameter = %d, want 4", d)
	}
	if r := g.Radius(); r != 2 {
		t.Fatalf("radius = %d, want 2", r)
	}

	c := Cycle(6)
	if d := c.Diameter(); d != 3 {
		t.Fatalf("C6 diameter = %d, want 3", d)
	}
	if r := c.Radius(); r != 3 {
		t.Fatalf("C6 radius = %d, want 3", r)
	}
}

func TestEccentricityDisconnectedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g := New(3)
	g.AddEdge(0, 1)
	g.Eccentricity(0)
}

func TestQuickTriangleInequalityOnTrees(t *testing.T) {
	// In a tree, dist(u,v) ≤ dist(u,w) + dist(w,v) with equality when w is
	// on the u–v path; BFS distances must satisfy the inequality.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(60)
		g := RandomTree(n, seed)
		u, v, w := r.Intn(n), r.Intn(n), r.Intn(n)
		du := g.BFS(u)
		dw := g.BFS(w)
		return du[v] <= du[w]+dw[v]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRadiusDiameterSandwich(t *testing.T) {
	// radius ≤ diameter ≤ 2·radius on connected graphs.
	f := func(seed int64) bool {
		n := 2 + int(uint64(seed)%40)
		g := GNPConnected(n, 0.2, seed)
		r, d := g.Radius(), g.Diameter()
		return r <= d && d <= 2*r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
