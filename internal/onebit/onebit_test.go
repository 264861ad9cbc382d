package onebit

import (
	"context"
	"testing"

	"radiobcast/internal/baseline"
	"radiobcast/internal/graph"
)

func TestPathSchemeAllSizes(t *testing.T) {
	for n := 2; n <= 40; n++ {
		g := graph.Path(n)
		s, err := PathScheme(g, 0)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if s.CompletionRound != n-1 {
			t.Fatalf("n=%d: completion %d, want %d", n, s.CompletionRound, n-1)
		}
	}
}

func TestPathSchemeInteriorSource(t *testing.T) {
	g := graph.Path(11)
	for src := 0; src < 11; src++ {
		if _, err := PathScheme(g, src); err != nil {
			t.Fatalf("src=%d: %v", src, err)
		}
	}
}

func TestCycleSchemeAllSizesAllSources(t *testing.T) {
	for n := 3; n <= 24; n++ {
		g := graph.Cycle(n)
		for src := 0; src < n; src++ {
			if _, err := CycleScheme(g, src); err != nil {
				t.Fatalf("n=%d src=%d: %v", n, src, err)
			}
		}
	}
}

func TestGridSchemeSweep(t *testing.T) {
	for rows := 1; rows <= 12; rows++ {
		for cols := 1; cols <= 12; cols++ {
			if rows*cols < 2 {
				continue
			}
			if _, _, err := GridScheme(rows, cols); err != nil {
				t.Fatalf("%dx%d: %v", rows, cols, err)
			}
		}
	}
}

func TestGridSchemeLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, size := range []int{20, 30, 40} {
		if _, _, err := GridScheme(size, size); err != nil {
			t.Fatalf("%dx%d: %v", size, size, err)
		}
	}
}

func TestGridSchemeInteriorSources(t *testing.T) {
	// The column-backbone rule works for any source cell, not just corners.
	for _, tc := range [][4]int{
		{5, 7, 2, 3}, {4, 4, 1, 1}, {6, 3, 5, 0}, {3, 6, 0, 5}, {7, 7, 3, 6},
	} {
		if _, _, err := GridSchemeAt(tc[0], tc[1], tc[2], tc[3]); err != nil {
			t.Fatalf("%v: %v", tc, err)
		}
	}
}

func TestGridSchemeInformedTimes(t *testing.T) {
	// Verify the closed-form informed times of the construction.
	rows, cols := 5, 6
	s, g, err := GridScheme(rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	rounds, _, _ := baseline.RunFlooding(g, s.Labels, s.Delays, 0, "m")
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if i == 0 && j == 0 {
				continue // the source holds µ from the start
			}
			v := graph.GridIndex(rows, cols, i, j)
			want := i
			if j > 0 {
				want = i + 2*j - 1
			}
			if rounds[v] != want {
				t.Fatalf("t(%d,%d) = %d, want %d", i, j, rounds[v], want)
			}
		}
	}
}

func TestSearchExhaustiveFindsC4(t *testing.T) {
	// All-1 fails on C4 (collision at the antipode); the search must find a
	// working labeling.
	g := graph.Cycle(4)
	s, err := SearchExhaustive(context.Background(), g, baseline.DefaultDelays, 0)
	if err != nil || s == nil {
		t.Fatalf("no 1-bit scheme found for C4: %v", err)
	}
	if round, ok := Verify(g, s.Labels, s.Delays, 0); !ok || round == 0 {
		t.Fatal("returned scheme does not verify")
	}
}

func TestSearchExhaustiveInfeasiblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for large n")
		}
	}()
	SearchExhaustive(context.Background(), graph.Path(30), baseline.DefaultDelays, 0)
}

func TestSearchRandomRadius2(t *testing.T) {
	// Feasibility study on small radius-2 graphs: the hill-climb should
	// find schemes for a decent fraction; we require it to succeed on the
	// star (where all-1 already fails for ≥ 2 leaves beyond round 1... the
	// star is distance-1, all nodes hear the hub directly).
	g := graph.Star(8)
	s, err := SearchRandom(context.Background(), g, baseline.DefaultDelays, 0, 500, 1)
	if err != nil || s == nil {
		t.Fatalf("no scheme found for star: %v", err)
	}
	if _, ok := Verify(g, s.Labels, s.Delays, 0); !ok {
		t.Fatal("scheme does not verify")
	}
}

func TestVerifyRejectsBadLabeling(t *testing.T) {
	g := graph.Path(3)
	labels := uniform(3, false) // nobody forwards
	if _, ok := Verify(g, labels, baseline.DefaultDelays, 0); ok {
		t.Fatal("all-zero labeling should fail on P3")
	}
}
