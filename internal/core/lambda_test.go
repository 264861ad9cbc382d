package core

import (
	"slices"
	"testing"
	"testing/quick"

	"radiobcast/internal/domset"
	"radiobcast/internal/graph"
)

func mustLambda(t *testing.T, g *graph.Graph, source int) *Labeling {
	t.Helper()
	l, err := Lambda(g, source, BuildOptions{})
	if err != nil {
		t.Fatalf("Lambda: %v", err)
	}
	return l
}

func TestLambdaFigure1Golden(t *testing.T) {
	g := graph.Figure1()
	l := mustLambda(t, g, graph.Figure1Source)
	for v, want := range graph.Figure1Labels {
		if l.Labels[v].String() != want {
			t.Errorf("label(%d) = %s, want %s", v, l.Labels[v], want)
		}
	}
	if err := VerifyLambda(l); err != nil {
		t.Fatal(err)
	}
}

func TestLambdaLength2(t *testing.T) {
	for _, name := range graph.FamilyNames() {
		g := graph.Families[name](20)
		l := mustLambda(t, g, 0)
		if MaxLen(l.Labels) != 2 {
			t.Fatalf("%s: λ length = %d, want 2", name, MaxLen(l.Labels))
		}
		if d := Distinct(l.Labels); d > 4 {
			t.Fatalf("%s: λ uses %d labels, want ≤ 4", name, d)
		}
	}
}

func TestLambdaPath(t *testing.T) {
	// On a path from endpoint 0, every internal node is in some DOM and
	// never needs a stay (each DOM_i = {i-1} differs from DOM_{i+1}).
	l := mustLambda(t, graph.Path(5), 0)
	want := []string{"10", "10", "10", "10", "00"}
	for v, w := range want {
		if l.Labels[v].String() != w {
			t.Fatalf("path labels = %v, want %v", l.Labels, want)
		}
	}
}

func TestLambdaStar(t *testing.T) {
	// Star from the hub: one stage; leaves are all 00.
	l := mustLambda(t, graph.Star(5), 0)
	if l.Labels[0] != MustParseLabel("10") {
		t.Fatalf("hub label = %s", l.Labels[0])
	}
	for v := 1; v < 5; v++ {
		if l.Labels[v] != MustParseLabel("00") {
			t.Fatalf("leaf %d label = %s, want 00", v, l.Labels[v])
		}
	}
}

func TestVerifyLambdaAllFamiliesAllOrders(t *testing.T) {
	for _, name := range graph.FamilyNames() {
		g := graph.Families[name](30)
		for _, order := range domset.Orders {
			l, err := Lambda(g, 0, BuildOptions{Order: order})
			if err != nil {
				t.Fatalf("%s/%v: %v", name, order, err)
			}
			if err := VerifyLambda(l); err != nil {
				t.Fatalf("%s/%v: %v", name, order, err)
			}
		}
	}
}

func TestLambdaQuickRandom(t *testing.T) {
	f := func(seed int64) bool {
		n := 2 + int(uint64(seed)%50)
		g := graph.GNPConnected(n, 0.2, seed)
		src := int(uint64(seed) % uint64(n))
		l, err := Lambda(g, src, BuildOptions{})
		if err != nil {
			return false
		}
		return VerifyLambda(l) == nil && MaxLen(l.Labels) == 2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLambdaAckFact31(t *testing.T) {
	for _, name := range graph.FamilyNames() {
		g := graph.Families[name](25)
		l, err := LambdaAck(g, 0, BuildOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if MaxLen(l.Labels) != 3 {
			t.Fatalf("%s: λack length = %d, want 3", name, MaxLen(l.Labels))
		}
		// Fact 3.1: labels 101, 111, 011 never assigned → ≤ 5 distinct.
		for v, lab := range l.Labels {
			switch lab.String() {
			case "101", "111", "011":
				t.Fatalf("%s: forbidden label %s at node %d", name, lab, v)
			}
		}
		if d := Distinct(l.Labels); d > 5 {
			t.Fatalf("%s: λack uses %d labels, want ≤ 5", name, d)
		}
		// Exactly one z with x3 = 1.
		count := 0
		for _, lab := range l.Labels {
			if lab.X3() {
				count++
			}
		}
		if count != 1 {
			t.Fatalf("%s: %d nodes with x3 = 1, want 1", name, count)
		}
	}
}

func TestLambdaAckZIsLastInformed(t *testing.T) {
	g := graph.Figure1()
	l, err := LambdaAck(g, graph.Figure1Source, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if z := slices.IndexFunc(l.Labels, Label.X3); z != 12 {
		t.Fatalf("z = %d, want 12 (the last-informed node)", z)
	}
	if l.Labels[12] != MustParseLabel("001") {
		t.Fatalf("label(z) = %s, want 001", l.Labels[12])
	}
}

func TestLambdaAckWithZ(t *testing.T) {
	g := graph.Path(4)
	l, err := LambdaAckWithZ(g, 0, 1, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !l.Labels[1].X3() {
		t.Fatal("explicit z not labeled")
	}
	if _, err := LambdaAckWithZ(g, 0, 9, BuildOptions{}); err == nil {
		t.Fatal("expected error for out-of-range z")
	}
}

func TestLambdaArbSixLabels(t *testing.T) {
	for _, name := range graph.FamilyNames() {
		g := graph.Families[name](25)
		l, err := LambdaArb(g, 0, BuildOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if l.Labels[0] != MustParseLabel("111") {
			t.Fatalf("%s: r label = %s, want 111", name, l.Labels[0])
		}
		if d := Distinct(l.Labels); d > 6 {
			t.Fatalf("%s: λarb uses %d labels, want ≤ 6", name, d)
		}
		// Exactly one node labeled 111.
		count := 0
		for _, lab := range l.Labels {
			if lab == MustParseLabel("111") {
				count++
			}
		}
		if count != 1 {
			t.Fatalf("%s: %d nodes labeled 111", name, count)
		}
	}
}

func TestLambdaArbBadR(t *testing.T) {
	if _, err := LambdaArb(graph.Path(3), 7, BuildOptions{}); err == nil {
		t.Fatal("expected error for out-of-range r")
	}
}
