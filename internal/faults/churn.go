package faults

import (
	"sort"

	"radiobcast/internal/graph"
)

// ChurnEvent is one scheduled topology mutation: at the start of Round,
// the undirected edge {U, V} appears (Add) or disappears. Events on
// already-present (or already-absent) edges are no-ops, as they are for
// graph.CSR.SetEdge, which applies them.
type ChurnEvent struct {
	Round int  `json:"round"`
	Add   bool `json:"add"`
	U     int  `json:"u"`
	V     int  `json:"v"`
}

// churn replays an edge add/remove schedule against a private copy of
// the base graph's CSR, edited in place as events fall due.
type churn struct {
	base   *graph.Graph
	events []ChurnEvent // sorted by round, original order preserved within a round

	next int
	csr  graph.CSR
}

// NewChurn returns a topology-churn model applying events to (a private
// copy of) base. The schedule is sorted by round; events sharing a round
// apply in their given order.
func NewChurn(base *graph.Graph, events []ChurnEvent) TopologyModel {
	evs := append([]ChurnEvent(nil), events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Round < evs[j].Round })
	return &churn{base: base, events: evs}
}

func (c *churn) Reset(int) {
	b := c.base.Freeze()
	// A fresh value also drops the slab form of the previous run's edits.
	c.csr = graph.CSR{
		Offsets: append(c.csr.Offsets[:0], b.Offsets...),
		Targets: append(c.csr.Targets[:0], b.Targets...),
	}
	c.next = 0
}

func (c *churn) Apply(*State, *Words) {}

func (c *churn) Topology(round int) *graph.CSR {
	changed := false
	n := c.csr.N()
	for c.next < len(c.events) && c.events[c.next].Round <= round {
		e := c.events[c.next]
		c.next++
		if e.U >= 0 && e.U < n && e.V >= 0 && e.V < n && c.csr.SetEdge(e.U, e.V, e.Add) {
			changed = true
		}
	}
	if !changed {
		return nil
	}
	return &c.csr
}
