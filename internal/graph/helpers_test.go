package graph

import (
	"bufio"
	"fmt"
	"io"
	"slices"
)

// The package's test-only helpers: the tests read graphs through them,
// and production code has no use for them.

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int {
	g.check(v)
	return g.Freeze().Degree(v)
}

// Validate checks the structural invariants of the CSR: offsets that
// span the targets, and sorted, symmetric, loop-free adjacency. It
// returns nil for every graph this package builds and catches a caller
// that wrote into the exported CSR arrays.
func (g *Graph) Validate() error {
	c := g.Freeze()
	if len(c.Offsets) != g.n+1 || c.Offsets[0] != 0 || int(c.Offsets[g.n]) != len(c.Targets) {
		return fmt.Errorf("graph: offsets do not span the %d targets", len(c.Targets))
	}
	for u := 0; u < g.n; u++ {
		if c.Offsets[u] > c.Offsets[u+1] {
			return fmt.Errorf("graph: offsets decrease at node %d", u)
		}
	}
	for u := 0; u < g.n; u++ {
		a := c.Neighbors(u)
		for i, v := range a {
			if v < 0 || int(v) >= g.n {
				return fmt.Errorf("graph: node %d has out-of-range neighbour %d", u, v)
			}
			if int(v) == u {
				return fmt.Errorf("graph: self-loop at %d", u)
			}
			if i > 0 && a[i-1] >= v {
				return fmt.Errorf("graph: adjacency of %d not sorted/unique", u)
			}
			if _, ok := slices.BinarySearch(c.Neighbors(int(v)), int32(u)); !ok {
				return fmt.Errorf("graph: edge {%d,%d} not symmetric", u, v)
			}
		}
	}
	return nil
}

// Diameter returns max_u ecc(u). Panics on disconnected graphs.
func (g *Graph) Diameter() int {
	d := 0
	for v := 0; v < g.n; v++ {
		d = max(d, g.Eccentricity(v))
	}
	return d
}

// Radius returns min_u ecc(u). Panics on disconnected graphs.
func (g *Graph) Radius() int {
	if g.n == 0 {
		return 0
	}
	r := g.Eccentricity(0)
	for v := 1; v < g.n; v++ {
		r = min(r, g.Eccentricity(v))
	}
	return r
}

// WriteEdgeList writes g in edge-list format, the format ReadEdgeList
// reads.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%d\n", g.N())
	for _, e := range g.Edges() {
		fmt.Fprintf(bw, "%d %d\n", e[0], e[1])
	}
	return bw.Flush()
}

// VerifyColoring reports whether colors is a proper colouring of g.
func VerifyColoring(g *Graph, colors []int) bool {
	if len(colors) != g.N() {
		return false
	}
	for _, e := range g.Edges() {
		if colors[e[0]] == colors[e[1]] {
			return false
		}
	}
	return true
}
