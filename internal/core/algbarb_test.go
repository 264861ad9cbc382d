package core

import (
	"testing"
	"testing/quick"

	"radiobcast/internal/graph"
	"radiobcast/internal/radio"
)

func TestAlgBarbSingleEdge(t *testing.T) {
	// n=2, r=0, sG=1: worked through by hand in the design notes — all
	// nodes must know µ and reach "knows complete" in the same round.
	g := graph.Path(2)
	out, err := runArbitrary(g, 0, 1, "m", BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := out.verifyArbitrary("m"); err != nil {
		t.Fatal(err)
	}
	if out.T != 1 {
		t.Fatalf("T = %d, want 1 (= t_z on an edge)", out.T)
	}
}

func TestAlgBarbSourceIsCoordinator(t *testing.T) {
	// sG = r: the documented deviation path (phase-2 fetch skipped).
	g := graph.Path(4)
	out, err := runArbitrary(g, 0, 0, "m", BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := out.verifyArbitrary("m"); err != nil {
		t.Fatal(err)
	}
}

// TestAlgBarbCoordinatorInformedByAck pins Barb's reading of the Result:
// the coordinator r is informed by the phase-2 ack that carries µ, before
// any phase-3 data reaches it.
func TestAlgBarbCoordinatorInformedByAck(t *testing.T) {
	g := graph.Path(16)
	l, err := LambdaArb(g, 0, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := runArbitraryLabeled(g, l, 15, "m")
	if err != nil {
		t.Fatal(err)
	}
	ack := 0
	for _, rec := range out.Result.Receives(0) {
		if msg := out.Result.Message(rec); msg.Kind == radio.KindAck && msg.Phase == 2 {
			ack = int(rec.Round)
			break
		}
	}
	if data := out.Result.FirstReception(0, radio.KindData); ack == 0 || out.InformedRound[0] != ack || data <= ack {
		t.Fatalf("r informed in round %d; its µ ack came in round %d, its first data in %d", out.InformedRound[0], ack, data)
	}
}

func TestAlgBarbAllSourceCoordinatorPairs(t *testing.T) {
	// Exhaustive sweep over (r, sG) on small graphs: the algorithm must be
	// correct regardless of which node holds µ and which is labeled 111.
	for name, g := range map[string]*graph.Graph{
		"P4":      graph.Path(4),
		"C5":      graph.Cycle(5),
		"star5":   graph.Star(5),
		"K4":      graph.Complete(4),
		"grid3x3": graph.Grid(3, 3),
	} {
		for r := 0; r < g.N(); r++ {
			for src := 0; src < g.N(); src++ {
				out, err := runArbitrary(g, r, src, "m", BuildOptions{})
				if err != nil {
					t.Fatalf("%s r=%d src=%d: %v", name, r, src, err)
				}
				if err := out.verifyArbitrary("m"); err != nil {
					t.Fatalf("%s r=%d src=%d: %v", name, r, src, err)
				}
			}
		}
	}
}

func TestAlgBarbFigure1AllSources(t *testing.T) {
	g := graph.Figure1()
	for src := 0; src < g.N(); src++ {
		out, err := runArbitrary(g, 0, src, "payload", BuildOptions{})
		if err != nil {
			t.Fatalf("src=%d: %v", src, err)
		}
		if err := out.verifyArbitrary("payload"); err != nil {
			t.Fatalf("src=%d: %v", src, err)
		}
	}
}

func TestAlgBarbFamilies(t *testing.T) {
	for _, name := range graph.FamilyNames() {
		g := graph.Families[name](24)
		if g.N() < 2 {
			continue
		}
		src := g.N() - 1
		out, err := runArbitrary(g, 0, src, "m", BuildOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := out.verifyArbitrary("m"); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestAlgBarbQuickRandom(t *testing.T) {
	f := func(seed int64) bool {
		n := 2 + int(uint64(seed)%30)
		g := graph.GNPConnected(n, 0.25, seed)
		r := int(uint64(seed) % uint64(n))
		src := int(uint64(seed/7) % uint64(n))
		out, err := runArbitrary(g, r, src, "m", BuildOptions{})
		if err != nil {
			return false
		}
		return out.verifyArbitrary("m") == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAlgBarbTEqualsLastInformedRound(t *testing.T) {
	// T learned by the coordinator equals t_z: the phase-1 informed round
	// of the last-informed node, which is 2ℓ−3 of the construction rooted
	// at r.
	g := graph.Figure1()
	l, err := LambdaArb(g, 0, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := runArbitraryLabeled(g, l, 5, "m")
	if err != nil {
		t.Fatal(err)
	}
	if err := out.verifyArbitrary("m"); err != nil {
		t.Fatal(err)
	}
	want := 2*l.Stages.L - 3
	if out.T != want {
		t.Fatalf("T = %d, want 2ℓ−3 = %d", out.T, want)
	}
}

func TestAlgBarbRejectsSingleton(t *testing.T) {
	if _, err := runArbitrary(graph.New(1), 0, 0, "m", BuildOptions{}); err == nil {
		t.Fatal("expected error for n = 1")
	}
}

func TestAlgBarbLinearTime(t *testing.T) {
	// Barb is a constant number of acknowledged broadcasts plus waits: its
	// total round count must stay linear in n.
	for _, n := range []int{8, 16, 32, 64} {
		g := graph.Path(n)
		out, err := runArbitrary(g, 0, n-1, "m", BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := out.verifyArbitrary("m"); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if out.Result.Rounds > 14*n+40 {
			t.Fatalf("n=%d: %d rounds, exceeds linear budget", n, out.Result.Rounds)
		}
	}
}
