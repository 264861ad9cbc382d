package graph

// This file implements BFS-based traversal metrics. The broadcast bounds of
// the paper are phrased in terms of n, but the baselines' completion times
// depend on the source eccentricity and the diameter, so the experiment
// harness needs exact distance computations.

// BFS returns the distance (in hops) from src to every node, with -1 for
// unreachable nodes.
func (g *Graph) BFS(src int) []int {
	g.check(src)
	c := g.Freeze()
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]int, 0, g.n)
	queue = append(queue, src)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range c.Neighbors(v) {
			if dist[w] == -1 {
				dist[w] = dist[v] + 1
				queue = append(queue, int(w))
			}
		}
	}
	return dist
}

// IsConnected reports whether the graph is connected (a 0-node graph is
// considered connected). It needs reachability, not distances, so it
// walks the CSR from node 0 with a node queue and a seen mark per node.
func (g *Graph) IsConnected() bool {
	if g.n == 0 {
		return true
	}
	c := g.Freeze()
	seen := make([]bool, g.n)
	seen[0] = true
	queue := make([]int32, 1, g.n)
	for i := 0; i < len(queue); i++ {
		for _, w := range c.Neighbors(int(queue[i])) {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	return len(queue) == g.n
}

// Eccentricity returns max_v dist(src, v). It panics on disconnected graphs.
func (g *Graph) Eccentricity(src int) int {
	ecc := 0
	for _, d := range g.BFS(src) {
		if d == -1 {
			panic("graph: eccentricity of disconnected graph")
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}
