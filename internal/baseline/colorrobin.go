package baseline

import (
	"math/bits"

	"radiobcast/internal/core"
	"radiobcast/internal/graph"
	"radiobcast/internal/radio"
)

// ColorRobin is the O(log Δ)-bit scheme from the paper's introduction:
// labels are colours of a proper colouring of G², and informed nodes
// transmit in the slot of their colour. Because any two nodes at distance
// ≤ 2 have different colours, at most one neighbour of any listener
// transmits per slot, so every frontier node is informed within one period
// of C = 2^⌈log₂ numColors⌉ rounds of its first informed neighbour.
type ColorRobin struct {
	color  int
	period int

	round   int
	haveMsg bool
	msg     string
}

// Step implements radio.Protocol.
func (p *ColorRobin) Step(rcv *radio.Message) radio.Action {
	p.round++
	if rcv != nil && rcv.Kind == radio.KindData && !p.haveMsg {
		p.haveMsg = true
		p.msg = rcv.Payload
	}
	if p.haveMsg && (p.round-1)%p.period == p.color {
		return radio.Send(radio.Message{Kind: radio.KindData, Payload: p.msg})
	}
	return radio.Listen
}

// ColorRobinLabels computes a distance-2 colouring of g and encodes each
// node's colour in ⌈log₂ numColors⌉ bits.
func ColorRobinLabels(g *graph.Graph) ([]core.Label, int) {
	colors, num := g.Distance2Coloring()
	w := 1
	if num > 1 {
		w = bits.Len(uint(num - 1))
	}
	labels := make([]core.Label, g.N())
	for v, c := range colors {
		labels[v] = binaryLabel(c, w)
	}
	return labels, num
}

// NextWake implements radio.Waker: an informed node's next colour slot.
func (p *ColorRobin) NextWake() int {
	return slotWake(p.haveMsg, p.round, p.period, p.color)
}

// Skip implements radio.Waker.
func (p *ColorRobin) Skip(rounds int) { p.round += rounds }

// NewColorRobinProtocols builds one protocol per node from its colour
// label, carved from one bulk allocation.
func NewColorRobinProtocols(labels []core.Label, source int, mu string) []radio.Protocol {
	nodes := make([]ColorRobin, len(labels))
	ps := make([]radio.Protocol, len(labels))
	for v, label := range labels {
		p := &nodes[v]
		p.color, p.period = slotOf(label)
		if v == source {
			p.haveMsg, p.msg = true, mu
		}
		ps[v] = p
	}
	return ps
}
