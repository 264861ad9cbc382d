package core

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"radiobcast/internal/domset"
	"radiobcast/internal/graph"
	"radiobcast/internal/radio"
	"radiobcast/internal/radio/radiotest"
)

func TestAlgBFigure1Golden(t *testing.T) {
	// The flagship golden test: algorithm B on the Figure 1 reconstruction
	// must reproduce the paper's transmit schedule and informed rounds.
	g := graph.Figure1()
	out, err := runBroadcast(g, graph.Figure1Source, "mu", BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := out.verifyBroadcast("mu"); err != nil {
		t.Fatal(err)
	}
	for v, want := range graph.Figure1Transmits {
		got := out.Result.Transmits(v)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("transmits(%d) = %v, want %v", v, got, want)
		}
	}
	for v, want := range graph.Figure1InformedRounds {
		if out.InformedRound[v] != want {
			t.Errorf("informed(%d) = %d, want %d", v, out.InformedRound[v], want)
		}
	}
	if out.CompletionRound != 7 {
		t.Errorf("completion = %d, want 7 (= 2ℓ−3 with ℓ=5)", out.CompletionRound)
	}
}

func TestAlgBSingleEdge(t *testing.T) {
	out, err := runBroadcast(graph.Path(2), 0, "m", BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := out.verifyBroadcast("m"); err != nil {
		t.Fatal(err)
	}
	if out.CompletionRound != 1 {
		t.Fatalf("completion = %d, want 1 = 2n−3", out.CompletionRound)
	}
}

func TestAlgBSingleNode(t *testing.T) {
	out, err := runBroadcast(graph.New(1), 0, "m", BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.AllInformed || out.CompletionRound != 0 {
		t.Fatal("single-node broadcast should be trivially complete")
	}
}

func TestAlgBPathTiming(t *testing.T) {
	// Path from an endpoint: node i is informed in round 2i−1.
	out, err := runBroadcast(graph.Path(6), 0, "m", BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v < 6; v++ {
		if out.InformedRound[v] != 2*v-1 {
			t.Fatalf("informed(%d) = %d, want %d", v, out.InformedRound[v], 2*v-1)
		}
	}
	if err := out.verifyBroadcast("m"); err != nil {
		t.Fatal(err)
	}
}

func TestAlgBFourCycleWithLabels(t *testing.T) {
	// The four-cycle is the impossibility example *without* labels; with λ
	// it must complete (one of the two source neighbours is pruned from
	// DOM_2, breaking the fatal symmetry).
	out, err := runBroadcast(graph.Cycle(4), 0, "m", BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := out.verifyBroadcast("m"); err != nil {
		t.Fatal(err)
	}
	if out.CompletionRound != 3 {
		t.Fatalf("C4 completion = %d, want 3", out.CompletionRound)
	}
}

func TestAlgBAllSourcesSmallGraphs(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"C4":      graph.Cycle(4),
		"C5":      graph.Cycle(5),
		"K4":      graph.Complete(4),
		"P5":      graph.Path(5),
		"star6":   graph.Star(6),
		"grid3x3": graph.Grid(3, 3),
		"K2,3":    graph.CompleteBipartite(2, 3),
		"wheel6":  graph.Wheel(6),
		"Q3":      graph.Hypercube(3),
		"fig1":    graph.Figure1(),
	}
	for name, g := range graphs {
		for src := 0; src < g.N(); src++ {
			out, err := runBroadcast(g, src, "m", BuildOptions{})
			if err != nil {
				t.Fatalf("%s src=%d: %v", name, src, err)
			}
			if err := out.verifyBroadcast("m"); err != nil {
				t.Fatalf("%s src=%d: %v", name, src, err)
			}
		}
	}
}

func TestAlgBAllFamiliesAllOrders(t *testing.T) {
	for _, name := range graph.FamilyNames() {
		g := graph.Families[name](40)
		for _, order := range domset.Orders {
			out, err := runBroadcast(g, 0, "m", BuildOptions{Order: order})
			if err != nil {
				t.Fatalf("%s/%v: %v", name, order, err)
			}
			if err := out.verifyBroadcast("m"); err != nil {
				t.Fatalf("%s/%v: %v", name, order, err)
			}
		}
	}
}

func TestAlgBQuickRandomGraphs(t *testing.T) {
	f := func(seed int64) bool {
		n := 2 + int(uint64(seed)%60)
		g := graph.GNPConnected(n, 0.18, seed)
		src := int(uint64(seed) % uint64(n))
		out, err := runBroadcast(g, src, "m", BuildOptions{})
		if err != nil {
			return false
		}
		return out.verifyBroadcast("m") == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestAlgBLemma28Characterisation(t *testing.T) {
	// Lemma 2.8: in odd round 2i−1 exactly DOM_i transmits; in even round
	// 2i exactly the x2-labeled members of NEW_i transmit "stay".
	g := graph.Figure1()
	l := mustLambda(t, g, graph.Figure1Source)
	out := runBroadcastLabeled(g, l, graph.Figure1Source, "m")
	for i := 1; i <= l.Stages.NumStored(); i++ {
		stage := l.Stages.Stage(i)
		round := 2*i - 1
		for v := 0; v < g.N(); v++ {
			transmitted := containsInt(out.Result.Transmits(v), round)
			if transmitted != stage.Dom.Has(v) {
				t.Fatalf("round %d: node %d transmitted=%v but DOM_%d membership=%v",
					round, v, transmitted, i, stage.Dom.Has(v))
			}
		}
		// Even round 2i: stays from x2-labeled NEW_i members.
		for v := 0; v < g.N(); v++ {
			transmitted := containsInt(out.Result.Transmits(v), 2*i)
			want := stage.New.Has(v) && l.Labels[v].X2()
			if transmitted != want {
				t.Fatalf("round %d: node %d stay=%v, want %v", 2*i, v, transmitted, want)
			}
		}
	}
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func TestAlgBMessageSizeConstant(t *testing.T) {
	// B's messages are the source message or "stay": their size must not
	// grow with n (§1.1 "much smaller messages will suffice").
	for _, n := range []int{8, 64, 256} {
		out, err := runBroadcast(graph.Path(n), 0, "m", BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if out.Result.MaxMessageBits > 3+8 {
			t.Fatalf("n=%d: B message bits = %d, want ≤ 11", n, out.Result.MaxMessageBits)
		}
	}
}

func TestAlgBUninformedIgnoresStay(t *testing.T) {
	// A node that hears only "stay" messages must remain uninformed
	// (Algorithm 1 line 5).
	g := graph.Path(2)
	ps := []radio.Protocol{
		radiotest.Script(radio.Message{Kind: radio.KindStay}, 1, 2, 3),
		NewAlgB(MustParseLabel("11"), nil),
	}
	res := radio.Run(g, ps, radio.Options{MaxRounds: 6})
	if ok, _ := ps[1].(*AckNode).Informed(); ok {
		t.Fatal("node adopted a stay message as µ")
	}
	if len(res.Transmits(1)) != 0 {
		t.Fatal("uninformed node transmitted")
	}
}

func TestAlgBZeroLabelNeverTransmits(t *testing.T) {
	// A 00-labeled non-source node receives µ but never transmits.
	g := graph.Path(2)
	mu := "m"
	ps := []radio.Protocol{
		NewAlgB(MustParseLabel("10"), &mu),
		NewAlgB(MustParseLabel("00"), nil),
	}
	res := radio.Run(g, ps, radio.Options{MaxRounds: 8, StopAfterSilent: 3})
	if len(res.Transmits(1)) != 0 {
		t.Fatalf("00-labeled node transmitted at %v", res.Transmits(1))
	}
	if got := res.FirstReception(1, radio.KindData); got != 1 {
		t.Fatalf("reception round = %d, want 1", got)
	}
}

// TestVerifyBroadcastNeedsEveryNodeListed pins Lemma 2.8's check: a node
// in no NEW list fails verification, though the run informed it.
func TestVerifyBroadcastNeedsEveryNodeListed(t *testing.T) {
	g := graph.Path(4)
	out, err := runBroadcast(g, 0, "m", BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := out.verifyBroadcast("m"); err != nil {
		t.Fatal(err)
	}
	// Drop the last node of the last stored list, NEW_{ℓ−1}.
	st := out.Stages
	off := slices.Clone(st.off)
	off[len(off)-1]--
	out.Stages = &Stages{G: st.G, Source: st.Source, L: st.L, off: off, nodes: st.nodes[:len(st.nodes)-1]}
	if err := out.verifyBroadcast("m"); err == nil {
		t.Fatal("a node in no NEW list passed verification")
	}
}

func TestAlgBInformedAccessors(t *testing.T) {
	mu := "m"
	src := NewAlgB(MustParseLabel("10"), &mu)
	if ok, r := src.Informed(); !ok || r != 0 {
		t.Fatal("source must be informed at round 0")
	}
	var out radio.Message
	if tx := src.Step(nil, &out); !tx || out != (radio.Message{Kind: radio.KindData, Payload: "m"}) {
		t.Fatalf("source's first step = %t, %+v, want µ = %q", tx, out, mu)
	}
	other := NewAlgB(MustParseLabel("00"), nil)
	if ok, _ := other.Informed(); ok {
		t.Fatal("fresh node must be uninformed")
	}
	other.Step(nil, &out)
	other.Step(&radio.Message{Kind: radio.KindData, Payload: "m"}, &out)
	if ok, r := other.Informed(); !ok || r != 1 {
		t.Fatalf("node that heard µ in round 1: Informed = %v, %d", ok, r)
	}
}

func TestBroadcastInvariantUnderRelabeling(t *testing.T) {
	// Renaming nodes must preserve every guarantee (the DOM sets chosen may
	// differ, but completion ≤ 2n−3 and full information always hold).
	for seed := int64(0); seed < 20; seed++ {
		g := graph.GNPConnected(24, 0.15, seed)
		perm := graph.RandomPermutation(24, seed+100)
		relabeled := graph.Relabel(g, perm)
		out1, err := runBroadcast(g, 3, "m", BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		out2, err := runBroadcast(relabeled, perm[3], "m", BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := out1.verifyBroadcast("m"); err != nil {
			t.Fatal(err)
		}
		if err := out2.verifyBroadcast("m"); err != nil {
			t.Fatalf("seed %d: relabeled graph: %v", seed, err)
		}
		// ℓ is permutation-invariant? Not necessarily (prune order is index
		// based), but the 2n−3 bound and stage count ≤ n must hold in both.
		if out1.Stages.L > 24 || out2.Stages.L > 24 {
			t.Fatal("ℓ > n")
		}
	}
}
