package core

import (
	"testing"

	"radiobcast/internal/graph"
	"radiobcast/internal/nodeset"
	"radiobcast/internal/radio"
)

// Hand-verified golden values for small graphs (worked out on paper from
// the §2.1 definitions with ascending prune order). These pin down the
// construction far more tightly than the invariant checks alone.

func TestGoldenC6(t *testing.T) {
	g := graph.Cycle(6)
	l := mustLambda(t, g, 0)
	st := l.Stages
	if st.L != 4 {
		t.Fatalf("ℓ = %d, want 4", st.L)
	}
	wantDom := []*nodeset.Set{
		nodeset.Of(6, 0), nodeset.Of(6, 1, 5), nodeset.Of(6, 4),
	}
	wantNew := []*nodeset.Set{
		nodeset.Of(6, 1, 5), nodeset.Of(6, 2, 4), nodeset.Of(6, 3),
	}
	for i := 1; i <= 3; i++ {
		if !st.Stage(i).Dom.Equal(wantDom[i-1]) {
			t.Fatalf("DOM_%d = %v, want %v", i, st.Stage(i).Dom, wantDom[i-1])
		}
		if !st.Stage(i).New.Equal(wantNew[i-1]) {
			t.Fatalf("NEW_%d = %v, want %v", i, st.Stage(i).New, wantNew[i-1])
		}
	}
	wantLabels := []string{"10", "10", "00", "00", "10", "10"}
	for v, w := range wantLabels {
		if l.Labels[v].String() != w {
			t.Fatalf("labels = %v, want %v", l.Labels, wantLabels)
		}
	}
	out := runBroadcastLabeled(g, l, 0, "m")
	wantInformed := []int{0, 1, 3, 5, 3, 1}
	for v, w := range wantInformed {
		if out.InformedRound[v] != w {
			t.Fatalf("informed = %v, want %v", out.InformedRound, wantInformed)
		}
	}
}

func TestGoldenK23(t *testing.T) {
	// K_{2,3}: part {0,1}, part {2,3,4}; source 0. DOM_2 prunes 2 and 3
	// (node 1 stays covered by 4), so node 1 is informed by 4 in round 3.
	g := graph.CompleteBipartite(2, 3)
	l := mustLambda(t, g, 0)
	st := l.Stages
	if st.L != 3 {
		t.Fatalf("ℓ = %d, want 3", st.L)
	}
	if !st.Stage(2).Dom.Equal(nodeset.Of(5, 4)) {
		t.Fatalf("DOM_2 = %v, want {4}", st.Stage(2).Dom)
	}
	wantLabels := []string{"10", "00", "00", "00", "10"}
	for v, w := range wantLabels {
		if l.Labels[v].String() != w {
			t.Fatalf("labels = %v, want %v", l.Labels, wantLabels)
		}
	}
	out := runBroadcastLabeled(g, l, 0, "m")
	if out.InformedRound[1] != 3 {
		t.Fatalf("node 1 informed at %d, want 3", out.InformedRound[1])
	}
}

func TestGoldenWheel6SourceHub(t *testing.T) {
	// Wheel with hub source: every rim node is adjacent to the hub, so
	// ℓ = 2 and nothing but the hub ever transmits.
	g := graph.Wheel(6)
	l := mustLambda(t, g, 0)
	if l.Stages.L != 2 {
		t.Fatalf("ℓ = %d, want 2", l.Stages.L)
	}
	out := runBroadcastLabeled(g, l, 0, "m")
	if out.Result.TotalTransmissions != 1 {
		t.Fatalf("transmissions = %d, want 1", out.Result.TotalTransmissions)
	}
	if out.CompletionRound != 1 {
		t.Fatalf("completion = %d, want 1", out.CompletionRound)
	}
}

func TestQuiescenceAfterCompletion(t *testing.T) {
	// Observation 3.3 analogue for B: no transmissions occur after round
	// 2ℓ−3 — the network goes permanently silent (we check a 4n horizon).
	for _, g := range []*graph.Graph{
		graph.Figure1(), graph.Grid(4, 4), graph.Cycle(9), graph.BinaryTree(15),
	} {
		l := mustLambda(t, g, 0)
		ps, _ := NewBProtocols(l.Labels, 0, "m")
		res := radio.Run(g, ps, radio.Options{MaxRounds: 4 * g.N()})
		cutoff := 2*l.Stages.L - 3
		for v := range res.N() {
			for _, r := range res.Transmits(v) {
				if r > cutoff {
					t.Fatalf("node %d transmitted in round %d > 2ℓ−3 = %d", v, r, cutoff)
				}
			}
		}
	}
}

func TestBackQuiescenceAfterAck(t *testing.T) {
	// After the source receives the ack, Back goes permanently silent.
	g := graph.Figure1()
	l, err := LambdaAck(g, 0, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ps, _ := NewBackProtocols(l.Labels, 0, "m")
	res := radio.Run(g, ps, radio.Options{MaxRounds: 6 * g.N()})
	ack := res.FirstReception(0, radio.KindAck)
	if ack == 0 {
		t.Fatal("no ack")
	}
	for v := range res.N() {
		for _, r := range res.Transmits(v) {
			if r > ack {
				t.Fatalf("node %d transmitted in round %d after the ack (round %d)", v, r, ack)
			}
		}
	}
}
