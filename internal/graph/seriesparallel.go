package graph

import "math/rand"

// Series-parallel graphs appear in the paper's conclusion as a family where
// single-bit labels suffice for broadcast. We generate them by the standard
// recursive definition: an SP graph with terminals (s, t) is either a single
// edge, a series composition (identify t1 with s2), or a parallel
// composition (identify s1=s2 and t1=t2).

// SeriesParallel returns a random connected series-parallel graph with
// roughly n nodes. Terminals of the outermost composition are nodes 0 and
// the last node created. Deterministic in seed.
func SeriesParallel(n int, seed int64) *Graph {
	if n < 2 {
		return Path(max(2, n))
	}
	r := rand.New(rand.NewSource(seed))
	b := &spBuilder{r: r}
	s, t := b.newNode(), b.newNode()
	b.compose(s, t, n-2)
	g := New(b.next)
	for _, e := range b.edges {
		g.AddEdge(e[0], e[1]) // parallel compositions repeat edges; AddEdge dedups
	}
	return g
}

type spBuilder struct {
	r     *rand.Rand
	next  int
	edges [][2]int
}

func (b *spBuilder) newNode() int {
	v := b.next
	b.next++
	return v
}

// compose builds an SP component between terminals s and t using up to
// budget internal nodes.
func (b *spBuilder) compose(s, t, budget int) {
	if budget <= 0 {
		b.edges = append(b.edges, [2]int{s, t})
		return
	}
	switch b.r.Intn(3) {
	case 0: // base edge
		b.edges = append(b.edges, [2]int{s, t})
	case 1: // series: s - mid - t
		mid := b.newNode()
		left := (budget - 1) / 2
		b.compose(s, mid, left)
		b.compose(mid, t, budget-1-left)
	default: // parallel: two components between the same terminals
		left := budget / 2
		b.compose(s, t, left)
		b.compose(s, t, budget-left)
	}
}

// IsSeriesParallelSize is a light sanity predicate used in tests: every
// simple connected series-parallel graph satisfies m ≤ 2n − 3.
func IsSeriesParallelSize(g *Graph) bool {
	if g.N() < 2 {
		return true
	}
	return g.M() <= 2*g.N()-3
}
