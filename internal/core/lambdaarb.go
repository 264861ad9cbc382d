package core

import (
	"fmt"

	"radiobcast/internal/graph"
)

// CoordinatorLabel is the coordinator r's λarb label 111.
var CoordinatorLabel = MakeLabel(true, true, true)

// LambdaArb computes the 3-bit labeling scheme λarb of §4.1 for the setting
// where the source is not known at labeling time. An arbitrary node r is
// labeled 111; the remaining nodes are labeled by λack computed *as if r
// were the source*. By Fact 3.1 the label 111 is otherwise unused, so r is
// uniquely identifiable and coordinates the three-phase algorithm Barb
// regardless of which node actually holds the source message.
func LambdaArb(g *graph.Graph, r int, opt BuildOptions) (*Labeling, error) {
	n := g.N()
	if r < 0 || r >= n {
		return nil, fmt.Errorf("core: coordinator r=%d out of range [0,%d)", r, n)
	}
	l, err := LambdaAck(g, r, opt)
	if err != nil {
		return nil, err
	}
	l.Labels[r] = CoordinatorLabel
	// λarb uses at most 6 distinct labels: the 5 of λack plus 111 (§5).
	if d := Distinct(l.Labels); d > 6 {
		return nil, fmt.Errorf("core: λarb produced %d distinct labels, want ≤ 6", d)
	}
	return l, nil
}
