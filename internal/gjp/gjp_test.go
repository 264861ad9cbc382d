package gjp

import (
	"context"
	"errors"
	"testing"

	"radiobcast/internal/core"
	"radiobcast/internal/graph"
	"radiobcast/internal/radio"
)

// complete runs the constructed labeling through the real engine and
// reports whether every node ends up informed with µ.
func complete(t *testing.T, g *graph.Graph, labels []core.Label, source int) bool {
	t.Helper()
	mu := "µ"
	ps, opt, _ := Plan(g, labels, source, mu)
	res := radio.Run(g, ps, opt)
	for v := range labels {
		if v != source && res.FirstReception(v, radio.KindData) == radio.NoReception {
			return false
		}
		for _, rec := range res.Receives(v) {
			if msg := res.Message(rec); msg.Kind == radio.KindData && msg.Payload != mu {
				t.Fatalf("node %d received payload %q, want %q", v, msg.Payload, mu)
			}
		}
	}
	return true
}

// barbell returns two cliques K_k joined by a path, n nodes in all.
func barbell(k, n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			g.AddEdge(i, j)
			g.AddEdge(n-1-i, n-1-j)
		}
	}
	for i := k - 1; i < n-k; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func TestBuildFamilies(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"path-12", graph.Path(12)},
		{"path-2", graph.Path(2)},
		{"cycle-9", graph.Cycle(9)},
		{"cycle-3", graph.Cycle(3)},
		{"star-10", graph.Star(10)},
		{"wheel-9", graph.Wheel(9)},
		{"complete-8", graph.Complete(8)},
		{"grid-4x4", graph.Grid(4, 4)},
		{"grid-6x6", graph.Grid(6, 6)},
		{"torus-4x4", graph.Torus(4, 4)},
		{"btree-15", graph.BinaryTree(15)},
		{"hypercube-4", graph.Hypercube(4)},
		{"caterpillar", graph.Caterpillar(6, 2)},
		{"lollipop", graph.Lollipop(4, 12)},
		{"barbell", barbell(4, 12)},
	}
	for _, tc := range cases {
		labels, err := Build(context.Background(), tc.g, 0, DefaultBudget)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if len(labels) != tc.g.N() {
			t.Errorf("%s: %d labels for %d nodes", tc.name, len(labels), tc.g.N())
			continue
		}
		for v, l := range labels {
			if l.Len() > 1 {
				t.Errorf("%s: node %d has %d-bit label, scheme is 1-bit", tc.name, v, l.Len())
			}
		}
		if !complete(t, tc.g, labels, 0) {
			t.Errorf("%s: constructed labeling does not complete broadcast", tc.name)
		}
	}
}

func TestBuildAllSourcesSmall(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Path(9), graph.Cycle(8), graph.Grid(3, 3)} {
		for src := 0; src < g.N(); src++ {
			labels, err := Build(context.Background(), g, src, DefaultBudget)
			if err != nil {
				t.Fatalf("n=%d src=%d: %v", g.N(), src, err)
			}
			if !complete(t, g, labels, src) {
				t.Fatalf("n=%d src=%d: incomplete broadcast", g.N(), src)
			}
		}
	}
}

// TestBuildDeterministic: two builds of the same instance must agree
// bit for bit — the search has no hidden randomness, so labelings are
// reproducible across processes (the store contract depends on this).
func TestBuildDeterministic(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Grid(5, 5), graph.Cycle(17), graph.BinaryTree(31)} {
		a, err := Build(context.Background(), g, 0, DefaultBudget)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Build(context.Background(), g, 0, DefaultBudget)
		if err != nil {
			t.Fatal(err)
		}
		for v := range a {
			if a[v] != b[v] {
				t.Fatalf("n=%d node %d: %q vs %q across builds", g.N(), v, a[v], b[v])
			}
		}
	}
}

// TestBuildFigure1Fails pins the scheme's known limit: the paper's
// Figure 1 graph defeats every 1-bit echo assignment, and Build must
// report that as ErrNoLabeling instead of returning a broken labeling.
func TestBuildFigure1Fails(t *testing.T) {
	if _, err := Build(context.Background(), graph.Figure1(), 0, DefaultBudget); !errors.Is(err, ErrNoLabeling) {
		t.Fatalf("Build on Figure 1: err = %v, want ErrNoLabeling", err)
	}
}

func TestBuildQuickBudget(t *testing.T) {
	g := graph.Grid(4, 4)
	labels, err := Build(context.Background(), g, 0, QuickBudget)
	if err != nil {
		t.Fatalf("quick budget: %v", err)
	}
	if !complete(t, g, labels, 0) {
		t.Fatal("quick-budget labeling does not complete broadcast")
	}
}

// bits returns a 1-bit labeling spelled by bs.
func bits(bs ...bool) []core.Label {
	labels := make([]core.Label, len(bs))
	for v, b := range bs {
		labels[v] = core.MakeLabel(b)
	}
	return labels
}

// TestProtocolTiming steps the nodes of a 3-path with the middle node
// labeled 1 directly: the source sends in round 1, the bit-1 middle node
// forwards µ two rounds after hearing it.
func TestProtocolTiming(t *testing.T) {
	mu := "µ"
	g, labels := graph.Path(3), bits(false, true, false)
	ps, _, _ := Plan(g, labels, 0, mu)
	src, mid, end := ps[0], ps[1], ps[2]

	// Round 1: source transmits; receptions are delivered at the NEXT
	// round's Step (the engine hands round r−1's airwaves to round r).
	var out radio.Message
	if !src.Step(nil, &out) || out.Kind != radio.KindData || out.Payload != mu {
		t.Fatalf("source round 1: %+v", out)
	}
	mid.Step(nil, &out)
	end.Step(nil, &out)

	// Round 2: middle processes the µ it heard in round 1; it is bit-1
	// (x2 = 0), so no echo and no transmission yet.
	src.Step(nil, &out)
	if mid.Step(&radio.Message{Kind: radio.KindData, Payload: mu}, &out) {
		t.Fatalf("bit-1 node acted on reception round: %+v", out)
	}
	end.Step(nil, &out)

	// Round 3 (two rounds after hearing µ): middle forwards µ.
	src.Step(nil, &out)
	if !mid.Step(nil, &out) || out.Kind != radio.KindData || out.Payload != mu {
		t.Fatalf("middle round 3: %+v", out)
	}
	end.Step(nil, &out)

	// On the engine, end hears the forwarded µ in round 3.
	ps, opt, _ := Plan(g, labels, 0, mu)
	if rounds, all, _ := core.Informed(radio.Run(g, ps, opt), 0, -1); !all || rounds[2] != 3 {
		t.Fatalf("informed rounds %v, want end informed in round 3", rounds)
	}
}

// TestProtocolEchoKeepsWaveAlive: a bit-0 node (x2 = 1) answers with a
// "stay" echo one round after hearing µ, and the transmitter that hears
// the lone echo retransmits µ one round later.
func TestProtocolEchoKeepsWaveAlive(t *testing.T) {
	mu := "µ"
	ps, _, _ := Plan(graph.Path(2), bits(false, false), 0, mu)
	src, zero := ps[0], ps[1]

	var out radio.Message
	src.Step(nil, &out) // round 1: transmit µ
	zero.Step(nil, &out)

	// Round 2: the bit-0 node processes the reception and echoes in the
	// same step.
	src.Step(nil, &out)
	if !zero.Step(&radio.Message{Kind: radio.KindData, Payload: mu}, &out) || out.Kind != radio.KindStay {
		t.Fatalf("bit-0 node round 2: %+v", out)
	}

	// Round 3: the source processes the lone echo and, having last sent
	// µ in round 1 (= r−2), retransmits to keep the wave alive.
	if !src.Step(&radio.Message{Kind: radio.KindStay}, &out) || out.Kind != radio.KindData || out.Payload != mu {
		t.Fatalf("source after lone echo: %+v", out)
	}
}
