package core

import (
	"slices"
	"testing"

	"radiobcast/internal/graph"
)

// The §1.2 deployment: a central monitor assigns λack once, then the source
// sends consecutive messages, each as an acknowledged broadcast started
// only after the previous one was acknowledged.

func TestSessionSendsSequence(t *testing.T) {
	g := graph.Grid(4, 4)
	l, err := LambdaAck(g, 0, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	firstAck := 0
	for _, mu := range []string{"alpha", "beta", "gamma"} {
		out := runAcknowledgedLabeled(g, l, 0, mu)
		if err := out.verifyAcknowledged(mu); err != nil {
			t.Fatalf("send %q: %v", mu, err)
		}
		if out.AckRound <= out.CompletionRound {
			t.Fatalf("send %q: ack %d not after completion %d", mu, out.AckRound, out.CompletionRound)
		}
		// Same labels → identical schedule for every message.
		if firstAck == 0 {
			firstAck = out.AckRound
		} else if out.AckRound != firstAck {
			t.Fatalf("send %q acked in round %d, first send in round %d", mu, out.AckRound, firstAck)
		}
	}
}

func TestSessionLabelsExposed(t *testing.T) {
	g := graph.Path(5)
	l, err := LambdaAck(g, 0, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if MaxLen(l.Labels) != 3 {
		t.Fatalf("label length %d, want 3", MaxLen(l.Labels))
	}
	if z := slices.IndexFunc(l.Labels, Label.X3); z != 4 {
		t.Fatalf("z = %d, want the far endpoint 4", z)
	}
}
