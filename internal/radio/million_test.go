package radio

import (
	"testing"

	"radiobcast/internal/graph"
)

// floodOnce is a minimal epidemic protocol for scale tests: on first
// reception it schedules one retransmission a hash-staggered few rounds
// later, then goes permanently passive. The stagger spreads transmitters
// across rounds so some singles survive the collisions, and the Waker
// contract keeps the active set sparse — which is exactly the regime the
// bitset core's wake calendar and slab resolution are built for.
type floodOnce struct {
	v      int
	round  int
	sendAt int
	msg    Message
}

func (f *floodOnce) Step(rcv, out *Message) bool {
	f.round++
	if rcv != nil && f.sendAt == 0 {
		f.msg = *rcv
		f.sendAt = f.round + 1 + int(uint32(f.v)*2654435761%13)
	}
	if f.sendAt == f.round {
		*out = f.msg
		return true
	}
	return false
}

func (f *floodOnce) NextWake() int {
	if f.sendAt > f.round {
		return f.sendAt
	}
	return NeverWake
}

func (f *floodOnce) Skip(rounds int) { f.round += rounds }

func floodProtocols(n int) []Protocol {
	ps := make([]Protocol, n)
	for v := 1; v < n; v++ {
		ps[v] = &floodOnce{v: v}
	}
	ps[0] = script(Message{Kind: KindData, Payload: "m"}, 1)
	return ps
}

// TestMillionNodeSmoke drives the bitset engine over a streamed-CSR
// million-node sparse G(n,p) graph: generation must stay within the
// streaming generator's budget and the run must complete. The assertion
// is coverage-only — epidemic flooding under collisions informs a
// sizeable fraction of the giant component, but which fraction is
// protocol detail, not an engine property.
func TestMillionNodeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("million-node smoke is a scale test")
	}
	const n = 1_000_000
	g := graph.Families["gnp-sparse"](n)
	if g.N() != n {
		t.Fatalf("generator produced %d nodes", g.N())
	}
	res := Run(g, floodProtocols(n), Options{MaxRounds: 200, StopAfterSilent: 3})
	informed := 1 // the source
	for v := 1; v < n; v++ {
		if len(res.Receives(v)) > 0 {
			informed++
		}
	}
	// The giant component of G(n, 2/n) holds ~80% of the nodes; the
	// staggered flood reaches most of it. Anything above half the graph
	// proves the engine actually propagated at scale.
	if informed < n/2 {
		t.Fatalf("flood informed %d of %d nodes", informed, n)
	}
	if res.TotalTransmissions > n {
		t.Fatalf("flood-once transmitted %d times on %d nodes", res.TotalTransmissions, n)
	}
}

// BenchmarkMillionNode is the scale benchmark behind docs/BENCHMARKS.md:
// one full million-node epidemic flood per iteration, streaming CSR
// generation excluded.
func BenchmarkMillionNode(b *testing.B) {
	const n = 1_000_000
	g := graph.Families["gnp-sparse"](n)
	g.Freeze().Bits() // pre-warm: measure the engine, not the caches
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(g, floodProtocols(n), Options{MaxRounds: 200, StopAfterSilent: 3})
	}
}
