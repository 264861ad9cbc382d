package graph

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"slices"
)

// The package's test-only helpers: the tests read graphs through them,
// and production code has no use for them.

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int {
	g.check(v)
	return g.Freeze().Degree(v)
}

// Grow makes room for m more edits, so code that knows its edge count
// adds the edges without reallocating. It does nothing to a graph that
// has been read.
func (g *Graph) Grow(m int) {
	if g.csr == nil {
		g.buf = slices.Grow(g.buf, m)
	}
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

// Layers returns the BFS layers from src: Layers(src)[d] is the sorted list
// of nodes at distance d. Unreachable nodes are omitted.
func (g *Graph) Layers(src int) [][]int {
	dist := g.BFS(src)
	layers := make([][]int, slices.Max(dist)+1)
	for v, d := range dist {
		if d >= 0 {
			layers[d] = append(layers[d], v)
		}
	}
	return layers
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

// ConnectedComponents returns the node sets of each connected component,
// ordered by smallest member.
func (g *Graph) ConnectedComponents() [][]int {
	c := g.Freeze()
	seen := make([]bool, g.n)
	var comps [][]int
	for s := 0; s < g.n; s++ {
		if seen[s] {
			continue
		}
		comp := []int{s}
		seen[s] = true
		for i := 0; i < len(comp); i++ {
			for _, w := range c.Neighbors(comp[i]) {
				if !seen[w] {
					seen[w] = true
					comp = append(comp, int(w))
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
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

// Relabel returns the graph with node v renamed to perm[v]. perm must be a
// permutation of 0..n-1.
func Relabel(g *Graph, perm []int) *Graph {
	n := g.N()
	if len(perm) != n {
		panic(fmt.Sprintf("graph: permutation length %d for %d nodes", len(perm), n))
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || p >= n || seen[p] {
			panic("graph: not a permutation")
		}
		seen[p] = true
	}
	out := New(n)
	for _, e := range g.Edges() {
		out.AddEdge(perm[e[0]], perm[e[1]])
	}
	return out
}

// RandomPermutation returns a uniformly random permutation of 0..n-1,
// deterministic in seed.
func RandomPermutation(n int, seed int64) []int {
	r := rand.New(rand.NewSource(seed))
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	r.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	return perm
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
