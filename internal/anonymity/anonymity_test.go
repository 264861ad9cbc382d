package anonymity

import (
	"testing"

	"radiobcast"
	"radiobcast/internal/core"
	"radiobcast/internal/graph"
	"radiobcast/internal/radio"
)

func gC4() *graph.Graph { return graph.Cycle(4) }

func TestUniformAlgBNeverInformsAntipode(t *testing.T) {
	// Algorithm B with every node labeled "11" (maximally chatty uniform
	// labels) still cannot break the symmetry.
	factory := func(isSource bool) radio.Protocol {
		var src *string
		if isSource {
			mu := "m"
			src = &mu
		}
		return core.NewAlgB(core.MustParseLabel("11"), src)
	}
	if err := Verify(factory, 1000); err != nil {
		t.Fatal(err)
	}
}

func TestUniformFloodingNeverInformsAntipode(t *testing.T) {
	factory := func(isSource bool) radio.Protocol {
		return &forwardOnce{isSource: isSource}
	}
	out := RunFourCycle(factory, 100)
	if out.AntipodeInformed != 0 {
		t.Fatalf("antipode informed at %d", out.AntipodeInformed)
	}
	if !out.NeighboursSymmetric {
		t.Fatal("neighbours diverged")
	}
	if out.AntipodeCollisions == 0 {
		t.Fatal("expected at least one collision at the antipode")
	}
}

// forwardOnce retransmits µ once, one round after reception.
type forwardOnce struct {
	isSource bool
	round    int
	haveMsg  bool
	msg      string
	recvAt   int
	sent     bool
}

func (f *forwardOnce) Step(rcv, out *radio.Message) bool {
	f.round++
	if rcv != nil && rcv.Kind == radio.KindData && !f.haveMsg {
		f.haveMsg = true
		f.msg = rcv.Payload
		f.recvAt = f.round - 1
	}
	due := f.isSource || f.haveMsg && f.round == f.recvAt+1
	if f.sent || !due {
		return false
	}
	f.sent = true
	*out = radio.Message{Kind: radio.KindData, Payload: f.msg}
	return true
}

func TestPseudorandomProgramSweep(t *testing.T) {
	// 300 arbitrary deterministic anonymous programs: none may inform the
	// antipode within the horizon.
	for seed := uint64(0); seed < 300; seed++ {
		if err := Verify(PseudorandomProgram(seed), 200); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestLabelsBreakTheSymmetry(t *testing.T) {
	// Control experiment: with the paper's 2-bit labels the four-cycle IS
	// solvable — confirming the impossibility is about missing labels, not
	// about the graph.
	g := coreFourCycleBroadcast(t)
	if g != 3 {
		t.Fatalf("labeled C4 completion = %d, want 3", g)
	}
}

func coreFourCycleBroadcast(t *testing.T) int {
	t.Helper()
	out, err := radiobcast.Run(radiobcast.NewNetwork(gC4()), "b", radiobcast.WithMessage("m"))
	if err != nil {
		t.Fatal(err)
	}
	if err := radiobcast.Verify(out); err != nil {
		t.Fatal(err)
	}
	return out.CompletionRound
}
