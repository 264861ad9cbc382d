// Package baseline implements the comparison algorithms the paper mentions
// in its introduction: round-robin broadcast over distinct O(log n)-bit
// labels, colour-slotted round-robin over a distance-2 colouring
// (O(log Δ)-bit labels), a centralized scheduler with full topology
// knowledge, and one-bit delayed flooding (used by the §5 one-bit
// extensions). These baselines give the BASE experiment its comparison
// axes: label length versus completion time.
package baseline

import (
	"math/bits"

	"radiobcast/internal/core"
	"radiobcast/internal/graph"
	"radiobcast/internal/radio"
)

// Slotted is the slotted broadcast protocol of the round-robin and
// colour-robin baselines: a node's w-bit label is its slot s in a period
// of P = 2^w rounds, and an informed node transmits µ exactly in the
// rounds r with (r−1) mod P = s. The two schemes differ only in their
// labels. Round robin gives every node a distinct identifier, so no two
// transmissions ever collide and each BFS layer is informed after at most
// one full period. Colour robin (O(log Δ) bits, from the paper's
// introduction) gives every node its colour in a proper colouring of G²:
// any two nodes at distance ≤ 2 have different slots, so at most one
// neighbour of any listener transmits per slot, and every frontier node
// is informed within one period of its first informed neighbour.
type Slotted struct {
	slot   int
	period int

	round      int
	haveMsg    bool
	msg        string
	uninformed *int // the run's count of uninformed nodes (see uninformedStop)
}

// Step implements radio.Protocol.
func (p *Slotted) Step(rcv, out *radio.Message) bool {
	p.round++
	if rcv != nil && rcv.Kind == radio.KindData && !p.haveMsg {
		p.haveMsg = true
		p.msg = rcv.Payload
		*p.uninformed--
	}
	if p.haveMsg && (p.round-1)%p.period == p.slot {
		*out = radio.Message{Kind: radio.KindData, Payload: p.msg}
		return true
	}
	return false
}

// NextWake implements radio.Waker: an informed node's next own slot; an
// uninformed node acts only after a reception.
func (p *Slotted) NextWake() int {
	if !p.haveMsg {
		return radio.NeverWake
	}
	next := p.round + 1
	return next + (p.slot-(next-1)%p.period+p.period)%p.period
}

// Skip implements radio.Waker.
func (p *Slotted) Skip(rounds int) { p.round += rounds }

// NewSlottedProtocols builds one protocol per node from its slot label,
// carved from one bulk allocation, and the stop predicate that ends the
// run once every node holds µ.
func NewSlottedProtocols(labels []core.Label, source int, mu string) ([]radio.Protocol, func(int) bool) {
	uninformed, stop := uninformedStop(len(labels))
	nodes := make([]Slotted, len(labels))
	ps := make([]radio.Protocol, len(labels))
	for v, label := range labels {
		p := &nodes[v]
		p.slot, p.period = slotOf(label)
		p.uninformed = uninformed
		if v == source {
			p.haveMsg, p.msg = true, mu
		}
		ps[v] = p
	}
	return ps, stop
}

// uninformedStop returns the count of a run's n−1 uninformed nodes, which
// a protocol decrements when it first gets µ, and the stop predicate
// that ends the run once the count reaches zero: in the round after the
// last first reception, the round the protocol processes it. One
// goroutine steps a run's protocols, so the count needs no atomic.
func uninformedStop(n int) (*int, func(int) bool) {
	uninformed := n - 1
	return &uninformed, func(int) bool { return uninformed <= 0 }
}

// RoundRobinLabels assigns the distinct-identifier labeling: node v gets v
// written in exactly ⌈log₂ n⌉ bits (1 bit for n = 1).
func RoundRobinLabels(n int) []core.Label {
	w := idWidth(n)
	labels := make([]core.Label, n)
	for v := 0; v < n; v++ {
		labels[v] = binaryLabel(v, w)
	}
	return labels
}

func idWidth(n int) int {
	if n <= 1 {
		return 1
	}
	return bits.Len(uint(n - 1))
}

// ColorRobinLabels computes a distance-2 colouring of g and encodes each
// node's colour in ⌈log₂ numColors⌉ bits.
func ColorRobinLabels(g *graph.Graph) ([]core.Label, int) {
	colors, num := g.Distance2Coloring()
	w := idWidth(num)
	labels := make([]core.Label, g.N())
	for v, c := range colors {
		labels[v] = binaryLabel(c, w)
	}
	return labels, num
}

// binaryLabel returns v written in exactly w bits, most significant first.
func binaryLabel(v, w int) core.Label {
	var bits [core.MaxLabelBits]bool
	for i := range w {
		bits[w-1-i] = v>>i&1 == 1
	}
	return core.MakeLabel(bits[:w]...)
}

// slotOf reads a w-bit slot label back as its slot number and the period
// 2^w: the inverse of binaryLabel.
func slotOf(label core.Label) (slot, period int) {
	for i := 0; i < label.Len(); i++ {
		slot <<= 1
		if label.Bit(i) {
			slot |= 1
		}
	}
	return slot, 1 << uint(label.Len())
}

// SlottedMaxRounds bounds a slotted (round-robin / colour-robin) run: one
// full 2^labelBits period per BFS layer, with slack.
func SlottedMaxRounds(g *graph.Graph, source, labelBits int) int {
	return (1 << uint(labelBits)) * (g.Eccentricity(source) + 2)
}

// FloodingMaxRounds bounds a delayed-flooding run.
func FloodingMaxRounds(n int) int { return 3*n + 8 }
