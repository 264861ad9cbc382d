package graph

import (
	"testing"
	"testing/quick"
)

func TestPath(t *testing.T) {
	g := Path(5)
	if g.M() != 4 || !g.IsConnected() {
		t.Fatalf("P5: m=%d connected=%v", g.M(), g.IsConnected())
	}
	if g.Degree(0) != 1 || g.Degree(2) != 2 {
		t.Fatal("path degrees wrong")
	}
}

func TestPathDegenerate(t *testing.T) {
	if g := Path(1); g.N() != 1 || g.M() != 0 {
		t.Fatal("P1 wrong")
	}
	if g := Path(0); g.N() != 0 {
		t.Fatal("P0 wrong")
	}
}

func TestCycle(t *testing.T) {
	g := Cycle(6)
	if g.M() != 6 {
		t.Fatalf("C6 m = %d", g.M())
	}
	for v := 0; v < 6; v++ {
		if g.Degree(v) != 2 {
			t.Fatalf("C6 degree(%d) = %d", v, g.Degree(v))
		}
	}
}

func TestCycleTooSmallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Cycle(2)
}

func TestStarWheelComplete(t *testing.T) {
	if g := Star(7); g.M() != 6 || g.Degree(0) != 6 {
		t.Fatal("star wrong")
	}
	if g := Wheel(7); g.M() != 12 || g.Degree(0) != 6 || g.Degree(1) != 3 {
		t.Fatal("wheel wrong")
	}
	if g := Complete(6); g.M() != 15 || g.MaxDegree() != 5 {
		t.Fatal("complete wrong")
	}
}

func TestCompleteBipartite(t *testing.T) {
	g := CompleteBipartite(3, 4)
	if g.N() != 7 || g.M() != 12 {
		t.Fatalf("K3,4: n=%d m=%d", g.N(), g.M())
	}
	if g.HasEdge(0, 1) || !g.HasEdge(0, 3) {
		t.Fatal("K3,4 edge structure wrong")
	}
}

func TestGrid(t *testing.T) {
	g := Grid(3, 4)
	if g.N() != 12 {
		t.Fatalf("grid n = %d", g.N())
	}
	if g.M() != 3*3+2*4 { // rows*(cols-1) + (rows-1)*cols
		t.Fatalf("grid m = %d", g.M())
	}
	if !g.HasEdge(GridIndex(3, 4, 1, 1), GridIndex(3, 4, 1, 2)) {
		t.Fatal("grid horizontal edge missing")
	}
	if g.HasEdge(GridIndex(3, 4, 0, 3), GridIndex(3, 4, 1, 0)) {
		t.Fatal("grid has wraparound edge")
	}
	if d := g.Diameter(); d != 2+3 {
		t.Fatalf("grid diameter = %d, want 5", d)
	}
}

func TestTorus(t *testing.T) {
	g := Torus(3, 5)
	if g.N() != 15 {
		t.Fatalf("torus n = %d", g.N())
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("torus degree(%d) = %d, want 4", v, g.Degree(v))
		}
	}
}

func TestTrees(t *testing.T) {
	g := BinaryTree(7)
	if g.M() != 6 || !g.IsConnected() {
		t.Fatal("binary tree wrong")
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(0, 2) || !g.HasEdge(1, 3) {
		t.Fatal("binary tree heap structure wrong")
	}
	k := KAryTree(13, 3)
	if k.Degree(0) != 3 {
		t.Fatalf("3-ary root degree = %d", k.Degree(0))
	}
}

func TestCaterpillar(t *testing.T) {
	g := Caterpillar(4, 2)
	if g.N() != 12 || g.M() != 11 || !g.IsConnected() {
		t.Fatalf("caterpillar n=%d m=%d", g.N(), g.M())
	}
}

func TestLollipopBarbell(t *testing.T) {
	g := Lollipop(4, 10)
	if g.N() != 10 || !g.IsConnected() {
		t.Fatal("lollipop wrong")
	}
	if g.M() != 6+6 { // K4 + path of 6 edges
		t.Fatalf("lollipop m = %d", g.M())
	}
	b := Barbell(3, 10)
	if b.N() != 10 || !b.IsConnected() {
		t.Fatal("barbell wrong")
	}
}

func TestHypercube(t *testing.T) {
	g := Hypercube(4)
	if g.N() != 16 || g.M() != 32 {
		t.Fatalf("Q4: n=%d m=%d", g.N(), g.M())
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("Q4 degree(%d) = %d", v, g.Degree(v))
		}
	}
	if d := g.Diameter(); d != 4 {
		t.Fatalf("Q4 diameter = %d", d)
	}
}

func TestRandomTreeDeterministicAndConnected(t *testing.T) {
	a := RandomTree(50, 7)
	b := RandomTree(50, 7)
	if len(a.Edges()) != len(b.Edges()) {
		t.Fatal("RandomTree not deterministic in seed")
	}
	for i, e := range a.Edges() {
		if b.Edges()[i] != e {
			t.Fatal("RandomTree not deterministic in seed")
		}
	}
	if a.M() != 49 || !a.IsConnected() {
		t.Fatal("RandomTree not a tree")
	}
	c := RandomTree(50, 8)
	same := true
	ae, ce := a.Edges(), c.Edges()
	if len(ae) == len(ce) {
		for i := range ae {
			if ae[i] != ce[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical trees (suspicious)")
	}
}

func TestGNPConnected(t *testing.T) {
	f := func(seed int64) bool {
		n := 2 + int(uint64(seed)%50)
		g := GNPConnected(n, 0.1, seed)
		return g.IsConnected() && g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestGNPFamiliesGolden pins the gnp family members bit for bit: the
// edge counts and fingerprints were recorded from the generator that
// tested every pair with HasEdge, so the parent-array shortcut must draw
// the same random sequence and produce the same graphs.
func TestGNPFamiliesGolden(t *testing.T) {
	for _, c := range []struct {
		family string
		n, m   int
		fp     uint64
	}{
		{"gnp-sparse", 256, 517, 0x9280b4292e89964},
		{"gnp-sparse", 1024, 2049, 0xcf985b8a621e8217},
		{"gnp-sparse", 4096, 8240, 0x81510bd35d772c1d},
		{"gnp-dense", 256, 9885, 0x4ab944aeebfdf3a7},
		{"gnp-dense", 1024, 157661, 0x88da01a2c645343a},
		{"gnp-dense", 4096, 2519560, 0xc79f64860e56f8be},
	} {
		if testing.Short() && c.m > 1e6 {
			continue
		}
		g := Families[c.family](c.n)
		if g.M() != c.m || g.Fingerprint() != c.fp {
			t.Errorf("%s/%d: m=%d fp=%#x, want m=%d fp=%#x", c.family, c.n, g.M(), g.Fingerprint(), c.m, c.fp)
		}
	}
}

func TestRandomRadius2(t *testing.T) {
	f := func(seed int64) bool {
		n := 2 + int(uint64(seed)%30)
		g := RandomRadius2(n, 0.3, seed)
		if !g.IsConnected() {
			return false
		}
		return g.Eccentricity(0) <= 2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSeriesParallel(t *testing.T) {
	f := func(seed int64) bool {
		n := 2 + int(uint64(seed)%60)
		g := SeriesParallel(n, seed)
		return g.IsConnected() && IsSeriesParallelSize(g) && g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFamiliesAllConnected(t *testing.T) {
	for _, name := range FamilyNames() {
		build := Families[name]
		for _, n := range []int{4, 9, 16, 33} {
			g := build(n)
			if g.N() == 0 {
				t.Fatalf("%s(%d): empty graph", name, n)
			}
			if !g.IsConnected() {
				t.Fatalf("%s(%d): not connected", name, n)
			}
			if err := g.Validate(); err != nil {
				t.Fatalf("%s(%d): %v", name, n, err)
			}
		}
	}
}

func TestFigure1Shape(t *testing.T) {
	g := Figure1()
	if g.N() != 13 {
		t.Fatalf("Figure1 n = %d, want 13", g.N())
	}
	if !g.IsConnected() {
		t.Fatal("Figure1 not connected")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Structural spot checks from the reconstruction.
	if !g.HasEdge(0, 3) || !g.HasEdge(3, 12) || !g.HasEdge(2, 12) {
		t.Fatal("Figure1 key edges missing")
	}
	if g.Degree(9) != 1 || g.Degree(12) != 2 {
		t.Fatal("Figure1 degrees wrong")
	}
}
