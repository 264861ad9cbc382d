package radio

import (
	"testing"

	"radiobcast/internal/graph"
)

// noiseRecorder records the busy flag it saw at each Step.
type noiseRecorder struct {
	busy     []bool
	schedule map[int]Message
	round    int
}

func (n *noiseRecorder) Step(_, _ *Message) bool {
	panic("engine must use StepNoise for NoiseProtocol implementations")
}

func (n *noiseRecorder) StepNoise(_ *Message, busy bool, out *Message) bool {
	n.round++
	n.busy = append(n.busy, busy)
	msg, ok := n.schedule[n.round]
	if ok {
		*out = msg
	}
	return ok
}

func TestNoiseFlagOnCollision(t *testing.T) {
	// Star centre listens while both leaves transmit: no message delivered
	// (collision) but busy must be true — the collision-detection model.
	g := graph.Star(3)
	centre := &noiseRecorder{}
	ps := []Protocol{
		centre,
		script(Message{Kind: KindData}, 1),
		script(Message{Kind: KindData}, 1),
	}
	res := Run(g, ps, Options{MaxRounds: 3})
	if len(res.Receives(0)) != 0 {
		t.Fatal("collision should deliver nothing")
	}
	// busy[0] is the flag for round 0 (before any round: false);
	// Step for round 2 sees round 1's noise.
	if centre.busy[0] {
		t.Fatal("busy before round 1")
	}
	if !centre.busy[1] {
		t.Fatal("collision not reported as noise")
	}
	if centre.busy[2] {
		t.Fatal("noise reported on a silent round")
	}
}

func TestNoiseFlagSingleTransmitter(t *testing.T) {
	// Exactly one transmitting neighbour: both the message AND busy=true.
	g := graph.Path(2)
	rec := &noiseRecorder{}
	ps := []Protocol{script(Message{Kind: KindData, Payload: "x"}, 1), rec}
	res := Run(g, ps, Options{MaxRounds: 2})
	if res.FirstReception(1, KindData) != 1 {
		t.Fatal("message not delivered")
	}
	if !rec.busy[1] {
		t.Fatal("busy flag missing alongside delivery")
	}
}

func TestNoiseFlagTransmitterHearsNothing(t *testing.T) {
	// A transmitting node detects no noise, even if its neighbour also
	// transmits in the same round.
	g := graph.Path(2)
	rec := &noiseRecorder{schedule: map[int]Message{1: {Kind: KindData}}}
	ps := []Protocol{script(Message{Kind: KindData}, 1), rec}
	Run(g, ps, Options{MaxRounds: 2})
	if rec.busy[1] {
		t.Fatal("transmitter must not sense the channel")
	}
}

func TestMixedProtocolTypes(t *testing.T) {
	// Plain Step protocols and NoiseProtocols coexist in one run.
	g := graph.Path(3)
	rec := &noiseRecorder{}
	ps := []Protocol{script(Message{Kind: KindData}, 1), &Scripted{}, rec}
	res := Run(g, ps, Options{MaxRounds: 2})
	if res.FirstReception(1, KindData) != 1 {
		t.Fatal("plain protocol missed delivery")
	}
	if rec.busy[1] {
		t.Fatal("node 2 is not adjacent to the transmitter")
	}
}
