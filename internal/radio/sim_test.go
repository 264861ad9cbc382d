// The engine's differential tests: every run is compared with the
// reference engine of radiotest. They live in the external test package
// because radiotest imports radio.
package radio_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"radiobcast/internal/graph"
	"radiobcast/internal/radio"
	"radiobcast/internal/radio/radiotest"
)

// echo is a reactive test protocol: it retransmits whatever it hears,
// delay rounds after hearing it. It does not implement Waker, so the
// engine must step it whenever it can act.
type echo struct {
	round   int
	sendAt  int
	pending radio.Message
}

func (e *echo) Step(rcv, out *radio.Message) bool {
	e.round++
	if rcv != nil {
		e.pending = *rcv
		e.sendAt = e.round + e.delayOf(rcv)
	}
	if e.sendAt == e.round {
		*out = e.pending
		return true
	}
	return false
}

func (e *echo) delayOf(m *radio.Message) int { return 1 + len(m.Payload)%3 }

// wakingEcho is echo with the sparse-wakeup contract.
type wakingEcho struct{ echo }

func (e *wakingEcho) NextWake() int {
	if e.sendAt > e.round {
		return e.sendAt
	}
	return radio.NeverWake
}

func (e *wakingEcho) Skip(rounds int) { e.round += rounds }

// noiseEcho is a collision-detection protocol with the sparse-wakeup
// contract: it relays a message it hears one round later, and answers
// noise it could not decode with a stay message two rounds later, so the
// busy flag feeds back into the traffic.
type noiseEcho struct {
	round   int
	sendAt  int
	pending radio.Message
}

func (e *noiseEcho) Step(_, _ *radio.Message) bool {
	panic("engine must use StepNoise for NoiseProtocol implementations")
}

func (e *noiseEcho) StepNoise(rcv *radio.Message, busy bool, out *radio.Message) bool {
	e.round++
	switch {
	case rcv != nil:
		e.pending, e.sendAt = *rcv, e.round+1
	case busy && e.sendAt <= e.round:
		e.pending, e.sendAt = radio.Message{Kind: radio.KindStay}, e.round+2
	}
	if e.sendAt == e.round {
		*out = e.pending
		return true
	}
	return false
}

func (e *noiseEcho) NextWake() int {
	if e.sendAt > e.round {
		return e.sendAt
	}
	return radio.NeverWake
}

func (e *noiseEcho) Skip(rounds int) { e.round += rounds }

// randomProtocols builds a mixed population over n nodes: scripted
// transmitters (Waker), waking echoes (Waker) and plain echoes (stepped
// every round), deterministically from seed.
func randomProtocols(n int, seed int64) []radio.Protocol {
	r := rand.New(rand.NewSource(seed))
	ps := make([]radio.Protocol, n)
	for v := range ps {
		switch r.Intn(3) {
		case 0:
			var rounds []int
			var msgs []radio.Message
			for k, at := r.Intn(4), 0; k > 0; k-- {
				at += 1 + r.Intn(10)
				rounds = append(rounds, at)
				msgs = append(msgs, radio.Message{Kind: radio.KindData, Payload: fmt.Sprintf("p%d", r.Intn(8))})
			}
			s := radio.CompiledScript(rounds, msgs)
			ps[v] = &s
		case 1:
			ps[v] = &wakingEcho{}
		default:
			ps[v] = &echo{}
		}
	}
	return ps
}

func testGraphs(t testing.TB) map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"path":   graph.Path(17),
		"star":   graph.Star(12),
		"grid":   graph.Grid(5, 5),
		"gnp":    graph.GNPConnected(40, 0.12, 7),
		"figure": graph.Figure1(),
	}
}

// TestSparseMatchesDense pins the sparse-wakeup contract: the engine,
// which skips sleeping Wakers, produces whole Results (every message
// included) deep-equal to the reference engine's, which steps every node
// every round, on mixed Waker/non-Waker protocol populations.
func TestSparseMatchesDense(t *testing.T) {
	for name, g := range testGraphs(t) {
		for seed := int64(1); seed <= 4; seed++ {
			want := radiotest.Run(g, randomProtocols(g.N(), seed), radio.Options{MaxRounds: 60})
			got := radio.Run(g, randomProtocols(g.N(), seed), radio.Options{MaxRounds: 60})
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s seed=%d: engine diverged from the reference engine", name, seed)
			}
		}
	}
}

// TestSparseMatchesDenseWithFaults repeats the differential under fault
// injection, which exercises the jammed-transmission paths of the
// channel resolution.
func TestSparseMatchesDenseWithFaults(t *testing.T) {
	drop := func(node, round int) bool { return (node+round)%5 == 0 }
	for name, g := range testGraphs(t) {
		want := radiotest.Run(g, randomProtocols(g.N(), 3), radio.Options{MaxRounds: 60, Faults: radio.DropFunc(drop)})
		got := radio.Run(g, randomProtocols(g.N(), 3), radio.Options{MaxRounds: 60, Faults: radio.DropFunc(drop)})
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: engine diverged from the reference engine under faults", name)
		}
	}
}

// TestSimReuse drives one Sim across runs of different sizes and checks
// that reuse changes nothing and that earlier Results stay intact
// (materialize must detach them from the Sim's buffers).
func TestSimReuse(t *testing.T) {
	sim := radio.NewSim()
	type run struct {
		g    *graph.Graph
		seed int64
	}
	runs := []run{
		{graph.Grid(5, 5), 1},
		{graph.Path(40), 2},
		{graph.Star(6), 3},
		{graph.Grid(5, 5), 1}, // repeat of the first
	}
	var kept []*radio.Result
	var fresh []*radio.Result
	for _, r := range runs {
		kept = append(kept, sim.Run(r.g, randomProtocols(r.g.N(), r.seed), radio.Options{MaxRounds: 50}))
		fresh = append(fresh, radiotest.Run(r.g, randomProtocols(r.g.N(), r.seed), radio.Options{MaxRounds: 50}))
	}
	for i := range runs {
		if !reflect.DeepEqual(kept[i], fresh[i]) {
			t.Fatalf("run %d: reused Sim diverged from the reference engine", i)
		}
	}
	if !reflect.DeepEqual(kept[0], kept[3]) {
		t.Fatalf("identical runs through one Sim differ")
	}
}

// TestWakerSkipAccounting checks that a protocol skipped by the engine
// observes exactly the round numbering of a protocol stepped every
// round: Scripted's own transmissions land in the scheduled rounds.
func TestWakerSkipAccounting(t *testing.T) {
	g := graph.Path(3)
	mk := func() []radio.Protocol {
		return []radio.Protocol{
			radiotest.Script(radio.Message{Kind: radio.KindData, Payload: "a"}, 5, 9, 23),
			&radio.Scripted{}, // silent
			radiotest.Script(radio.Message{Kind: radio.KindData, Payload: "b"}, 14),
		}
	}
	res := radio.Run(g, mk(), radio.Options{MaxRounds: 30})
	if got, want := fmt.Sprint(res.Transmits(0)), "[5 9 23]"; got != want {
		t.Fatalf("node 0 transmitted in %v, want %s", got, want)
	}
	if got, want := fmt.Sprint(res.Transmits(2)), "[14]"; got != want {
		t.Fatalf("node 2 transmitted in %v, want %s", got, want)
	}
	// Node 1 hears each uncontended transmission.
	if len(res.Receives(1)) != 4 {
		t.Fatalf("node 1 received %d messages, want 4", len(res.Receives(1)))
	}
}

// TestNoReceptionSentinel pins the documented sentinel value and the
// 1-based round convention.
func TestNoReceptionSentinel(t *testing.T) {
	g := graph.Path(3)
	res := radio.Run(g, []radio.Protocol{
		radiotest.Script(radio.Message{Kind: radio.KindData, Payload: "x"}, 1),
		&radio.Scripted{}, &radio.Scripted{},
	}, radio.Options{MaxRounds: 3})
	if r := res.FirstReception(1, radio.KindData); r != 1 {
		t.Fatalf("adjacent node first reception in round %d, want 1 (rounds are 1-based)", r)
	}
	if r := res.FirstReception(2, radio.KindData); r != radio.NoReception {
		t.Fatalf("unreached node first reception %d, want NoReception", r)
	}
	if radio.NoReception != 0 {
		t.Fatalf("NoReception must be 0 for backward compatibility, got %d", radio.NoReception)
	}
}

// TestSimZeroSteadyStateAllocs pins the engine-side allocation behaviour:
// after warm-up, repeated runs through one Sim allocate only the detached
// Result (a constant handful of allocations, independent of traffic).
func TestSimZeroSteadyStateAllocs(t *testing.T) {
	g := graph.Grid(8, 8)
	g.Freeze()
	sim := radio.NewSim()
	protos := make([]radio.Protocol, g.N())
	scripts := make([]radio.Scripted, g.N())
	msg := radio.Message{Kind: radio.KindData, Payload: "m"}
	rounds := make([]int, g.N())
	msgs := make([]radio.Message, g.N())
	for v := range rounds {
		rounds[v] = 1 + v%16
		msgs[v] = msg
	}
	reset := func() {
		for v := range protos {
			scripts[v] = radio.CompiledScript(rounds[v:v+1], msgs[v:v+1])
			protos[v] = &scripts[v]
		}
	}
	reset()
	sim.Run(g, protos, radio.Options{MaxRounds: 20}) // warm-up sizes every buffer
	allocs := testing.AllocsPerRun(20, func() {
		reset()
		sim.Run(g, protos, radio.Options{MaxRounds: 20})
	})
	// materialize detaches the Result in five allocations (the struct,
	// the offsets, Collisions with the transmit rounds, the messages and
	// the receptions), 16 bytes per node plus the events; everything else
	// must be reused.
	if allocs > 8 {
		t.Fatalf("steady-state Sim.Run does %.0f allocs/run, want ≤ 8", allocs)
	}
}
