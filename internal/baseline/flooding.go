package baseline

import (
	"radiobcast/internal/core"
	"radiobcast/internal/graph"
	"radiobcast/internal/radio"
)

// Flooding is the one-bit protocol family used for the §5 extensions: a
// node retransmits µ exactly once, d rounds after first receiving it, where
// the delay d is selected by the node's single label bit (bit 1 → DelayOne
// rounds, bit 0 → DelayZero rounds; DelayZero = 0 means "never forward").
// The labeling scheme's job is to choose bits so that every node eventually
// has a round in which exactly one neighbour transmits.
type Flooding struct {
	delay int // rounds between first reception and the single retransmission; 0 = never

	round      int
	haveMsg    bool
	msg        string
	recvAt     int
	sent       bool
	isSource   bool
	uninformed *int // the run's count of uninformed nodes (see uninformedStop)
}

// FloodingDelays configures the two delays selected by the label bit.
type FloodingDelays struct {
	// DelayOne is the forwarding delay of bit-1 nodes (≥ 1).
	DelayOne int
	// DelayZero is the forwarding delay of bit-0 nodes; 0 disables
	// forwarding entirely.
	DelayZero int
}

// DefaultDelays forwards after 1 round for bit 1 and never for bit 0.
var DefaultDelays = FloodingDelays{DelayOne: 1, DelayZero: 0}

// GridDelays forwards after 1 round for bit 1 and 2 rounds for bit 0,
// the family used by the grid labelings.
var GridDelays = FloodingDelays{DelayOne: 1, DelayZero: 2}

// Step implements radio.Protocol.
func (p *Flooding) Step(rcv, out *radio.Message) bool {
	p.round++
	if rcv != nil && rcv.Kind == radio.KindData && !p.haveMsg {
		p.haveMsg = true
		p.msg = rcv.Payload
		p.recvAt = p.round - 1
		*p.uninformed--
	}
	// The source transmits once, in its first round; any other node once,
	// delay rounds after its first reception.
	due := p.isSource || p.haveMsg && p.delay > 0 && p.round == p.recvAt+p.delay
	if p.sent || !due {
		return false
	}
	p.sent = true
	*out = radio.Message{Kind: radio.KindData, Payload: p.msg}
	return true
}

// NextWake implements radio.Waker: the single delayed retransmission at
// recvAt+delay (the source transmits at its first step, and round 1 is
// always stepped).
func (p *Flooding) NextWake() int {
	if p.sent || !p.haveMsg || p.delay <= 0 {
		return radio.NeverWake
	}
	if w := p.recvAt + p.delay; w > p.round {
		return w
	}
	return radio.NeverWake
}

// Skip implements radio.Waker.
func (p *Flooding) Skip(rounds int) { p.round += rounds }

// NewFloodingProtocols builds one protocol per node from its 1-bit
// label, carved from one bulk allocation, and the stop predicate that
// ends the run once every node holds µ.
func NewFloodingProtocols(labels []core.Label, d FloodingDelays, source int, mu string) ([]radio.Protocol, func(int) bool) {
	uninformed, stop := uninformedStop(len(labels))
	nodes := make([]Flooding, len(labels))
	ps := make([]radio.Protocol, len(labels))
	for v, label := range labels {
		p := &nodes[v]
		p.delay, p.recvAt, p.uninformed = d.DelayZero, -1, uninformed
		if label.Bit(0) {
			p.delay = d.DelayOne
		}
		if v == source {
			p.isSource, p.haveMsg, p.msg = true, true, mu
		}
		ps[v] = p
	}
	return ps, stop
}

// RunFlooding runs the delayed-flooding protocol under the given 1-bit
// labeling and returns who it informed, as core.Informed reads it from
// the Result. The broadcast may be incomplete: callers use this to
// *verify* candidate labelings.
func RunFlooding(g *graph.Graph, labels []core.Label, d FloodingDelays, source int, mu string) (rounds []int, all bool, last int) {
	ps, stop := NewFloodingProtocols(labels, d, source, mu)
	return core.Informed(radio.Run(g, ps, radio.Options{MaxRounds: FloodingMaxRounds(g.N()), Stop: stop}), source, -1)
}
