package radio_test

import (
	"testing"

	"radiobcast/internal/faults"
	"radiobcast/internal/graph"
	"radiobcast/internal/radio"
	"radiobcast/internal/radio/radiotest"
)

// wipeAt crashes node with memory loss at round: Down and Wipe, set in
// the pre-step phase like faults.NewCrash with Lose.
type wipeAt struct{ node, round int }

func (wipeAt) Reset(int) {}

func (w wipeAt) Apply(st *faults.State, fx *faults.Words) {
	if st.Transmitters == nil && st.Round == w.round {
		fx.SetDown(w.node)
		fx.SetWipe(w.node)
	}
}

// TestWipedReceptionIsNoReception: the centre of a 3-star sends µ in
// round 1, both leaves hear it, and a crash in round 2 wipes leaf 1's
// pending µ before its protocol steps on it. On both engines the Result
// has no reception at leaf 1 and keeps leaf 2's; the Trace keeps both
// channel deliveries.
func TestWipedReceptionIsNoReception(t *testing.T) {
	engines := map[string]func(*graph.Graph, []radio.Protocol, radio.Options) *radio.Result{
		"engine": radio.Run, "reference": radiotest.Run,
	}
	for name, run := range engines {
		mu := radio.Message{Kind: radio.KindData, Payload: "µ"}
		ps := []radio.Protocol{radiotest.Script(mu, 1), &radio.Scripted{}, &radio.Scripted{}}
		tr := &radio.Trace{}
		res := run(graph.Star(3), ps, radio.Options{MaxRounds: 3, Faults: wipeAt{node: 1, round: 2}, Trace: tr})
		if len(res.Receives(1)) != 0 {
			t.Fatalf("%s: wiped leaf keeps receptions %+v", name, res.Receives(1))
		}
		if got := res.FirstReception(1, radio.KindData); got != radio.NoReception {
			t.Fatalf("%s: wiped leaf's first reception = %d, want none", name, got)
		}
		if got := res.FirstReception(2, radio.KindData); got != 1 {
			t.Fatalf("%s: leaf 2's first reception = %d, want 1", name, got)
		}
		if len(tr.Rounds) != 1 || len(tr.Rounds[0].Deliveries) != 2 {
			t.Fatalf("%s: trace lost the channel deliveries: %+v", name, tr.Rounds)
		}
	}
}
