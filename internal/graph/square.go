package graph

// This file supports the O(log Δ)-bit baseline sketched in the paper's
// introduction: "by using a proper colouring of the square of the graph,
// O(log Δ)-bit labels are enough to successfully broadcast". We build G²
// and colour it greedily; any two nodes at distance ≤ 2 in G receive
// distinct colours, so in a colour-slotted round-robin at most one
// neighbour of any listener transmits per slot.

// Square returns G²: same nodes, with an edge between every pair of
// distinct nodes at distance 1 or 2 in g.
func (g *Graph) Square() *Graph {
	c := g.Freeze()
	sq := New(g.n)
	// seen[w] == u+1 once {u, w} is in sq's edit buffer, so the buffer
	// holds each edge of G² once instead of once per path of length ≤ 2.
	seen := make([]int, g.n)
	add := func(u, w int) {
		if u < w && seen[w] != u+1 {
			seen[w] = u + 1
			sq.AddEdge(u, w)
		}
	}
	for u := 0; u < g.n; u++ {
		for _, v := range c.Neighbors(u) {
			add(u, int(v))
			for _, w := range c.Neighbors(int(v)) {
				add(u, int(w))
			}
		}
	}
	return sq
}

// GreedyColoring colours the graph greedily in ascending node order and
// returns (colors, numColors). Colours are 0-based and at most MaxDegree+1
// of them are used.
func (g *Graph) GreedyColoring() ([]int, int) {
	csr := g.Freeze()
	colors := make([]int, g.n)
	for i := range colors {
		colors[i] = -1
	}
	used := make([]bool, g.MaxDegree()+1)
	numColors := 0
	for v := 0; v < g.n; v++ {
		for i := range used {
			used[i] = false
		}
		for _, w := range csr.Neighbors(v) {
			if c := colors[w]; c >= 0 {
				used[c] = true
			}
		}
		c := 0
		for used[c] {
			c++
		}
		colors[v] = c
		if c+1 > numColors {
			numColors = c + 1
		}
	}
	return colors, numColors
}

// Distance2Coloring returns a colouring of g in which nodes at distance
// ≤ 2 get distinct colours, together with the number of colours used
// (at most Δ² + 1).
func (g *Graph) Distance2Coloring() ([]int, int) {
	return g.Square().GreedyColoring()
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
