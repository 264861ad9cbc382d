package radio

import (
	"context"
	"testing"

	"radiobcast/internal/faults"
	"radiobcast/internal/graph"
)

// chatter transmits every round forever — the pathological hung protocol
// cancellation exists for.
type chatter struct{}

func (chatter) Step(_, out *Message) bool {
	*out = Message{Kind: KindData, Payload: "x"}
	return true
}

func chatterProtos(n int) []Protocol {
	ps := make([]Protocol, n)
	for i := range ps {
		ps[i] = chatter{}
	}
	return ps
}

// TestRunCtxStopsWithinOneRound pins the engine's cancellation contract:
// a context cancelled during round r stops the run before round r+1, and
// the Result carries the executed prefix with Interrupted set.
func TestRunCtxStopsWithinOneRound(t *testing.T) {
	g := graph.Path(4)
	ctx, cancel := context.WithCancel(context.Background())
	const cancelRound = 5
	res := Run(g, chatterProtos(4), Options{
		MaxRounds: 1 << 20,
		Ctx:       ctx,
		Faults: faults.DropFunc(func(node, round int) bool {
			if round >= cancelRound {
				cancel()
			}
			return false
		}),
	})
	if !res.Interrupted {
		t.Fatal("cancelled run not marked Interrupted")
	}
	if res.Rounds != cancelRound {
		t.Fatalf("run stopped after round %d, want exactly the cancellation round %d", res.Rounds, cancelRound)
	}
	if res.TotalTransmissions != 4*cancelRound {
		t.Fatalf("prefix records %d transmissions, want %d", res.TotalTransmissions, 4*cancelRound)
	}
}

// TestRunCtxAlreadyCancelled: a done context yields an empty (0-round)
// interrupted result rather than running at all.
func TestRunCtxAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := Run(graph.Path(3), chatterProtos(3), Options{MaxRounds: 100, Ctx: ctx})
	if !res.Interrupted || res.Rounds != 0 || res.TotalTransmissions != 0 {
		t.Fatalf("pre-cancelled run executed: rounds=%d tx=%d interrupted=%v",
			res.Rounds, res.TotalTransmissions, res.Interrupted)
	}
}

// TestRunNilCtxUnchanged: the default (nil) context is never consulted
// and the run completes to its bound.
func TestRunNilCtxUnchanged(t *testing.T) {
	res := Run(graph.Path(3), chatterProtos(3), Options{MaxRounds: 17})
	if res.Interrupted {
		t.Fatal("uncancellable run marked Interrupted")
	}
	if res.Rounds != 17 {
		t.Fatalf("ran %d rounds, want the full 17", res.Rounds)
	}
}
