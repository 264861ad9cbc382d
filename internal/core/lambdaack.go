package core

import (
	"fmt"

	"radiobcast/internal/graph"
)

// LambdaAck computes the 3-bit labeling scheme λack of §3.1: λ extended
// with a third bit x3 that is 1 only at the node z chosen to initiate the
// acknowledgement, where z is a node that receives µ in the last round of
// the broadcast (i.e. z ∈ NEW_{ℓ−1}; we pick the smallest index).
//
// Fact 3.1 holds by construction — z is never in any DOM_i and never a
// stay-pick, so the labels 101, 111 and 011 are never assigned — and is
// re-checked here at runtime.
func LambdaAck(g *graph.Graph, source int, opt BuildOptions) (*Labeling, error) {
	l, err := Lambda(g, source, opt)
	if err != nil {
		return nil, err
	}
	if err := extendToAck(l); err != nil {
		return nil, err
	}
	return l, nil
}

func extendToAck(l *Labeling) error {
	st := l.Stages
	n := st.G.N()
	z := -1
	if st.L >= 2 {
		// NEW_{ℓ−1} is stored ascending, so its first element is the
		// smallest — no stage materialization needed.
		if _, last := st.Lists(st.NumStored()); len(last) > 0 {
			z = int(last[0])
		}
		if z == -1 {
			return fmt.Errorf("core: NEW_{ℓ-1} empty, cannot choose z")
		}
	}
	for v := 0; v < n; v++ {
		l.Labels[v] = MakeLabel(l.Labels[v].X1(), l.Labels[v].X2(), v == z)
	}
	return checkFact31(l.Labels)
}

// checkFact31 verifies that none of the labels 101, 111, 011 appear.
func checkFact31(labels []Label) error {
	for v, lab := range labels {
		if lab.X3() && (lab.X1() || lab.X2()) {
			return fmt.Errorf("core: Fact 3.1 violated at node %d: label %s", v, lab)
		}
	}
	return nil
}

// LambdaAckWithZ is LambdaAck with an explicit z, used by the ABLZ ablation
// to demonstrate that choosing a non-last node as acknowledgement initiator
// makes the source's ack arrive before broadcast completion.
func LambdaAckWithZ(g *graph.Graph, source, z int, opt BuildOptions) (*Labeling, error) {
	l, err := Lambda(g, source, opt)
	if err != nil {
		return nil, err
	}
	n := g.N()
	if z < 0 || z >= n {
		return nil, fmt.Errorf("core: z=%d out of range", z)
	}
	for v := 0; v < n; v++ {
		l.Labels[v] = MakeLabel(l.Labels[v].X1(), l.Labels[v].X2(), v == z)
	}
	return l, nil
}
