// Package graph implements the network substrate of the paper: simple
// undirected connected graphs with nodes identified by integers 0..n-1.
// It provides construction, traversal (BFS distances, eccentricity, radius,
// diameter), the graph square and distance-2 colorings used by the
// O(log Δ)-bit baseline, a library of generators covering the graph
// families exercised in the experiments, and simple text I/O.
package graph

import (
	"fmt"
	"slices"
	"sync/atomic"
)

// Graph is a simple undirected graph over nodes 0..n-1 whose adjacency is
// its CSR (see Freeze). New and AddEdge only append to an edit buffer;
// the first read turns the buffer into the CSR and drops it.
// FromEdgeKeys builds the CSR directly. Adjacency comes out sorted and
// duplicate-free, so every downstream algorithm iterates neighbours in a
// deterministic order. The fingerprint is hashed on its first call, not
// by the read that builds the CSR, since only cache keys read it.
//
// Edits belong before the first read: an edge added after a read that is
// not already present reopens the buffer from the CSR, which costs O(m), so
// builders that test membership while they add edges keep their own
// state. A graph is read-only once it is shared: read it once (Freeze)
// before handing it to other goroutines, and do not edit it afterwards.
// Fingerprint may be called first by several goroutines at once.
type Graph struct {
	n int
	// buf holds the edges added since the last read, each as its key
	// min·n+max.
	buf []int64
	csr *CSR // nil while edits are pending
	// fp caches the fingerprint of csr, 0 until the first Fingerprint
	// call. It is atomic because that call may come from several
	// goroutines sharing a frozen graph.
	fp atomic.Uint64
}

// New returns an edgeless graph with n nodes.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	return &Graph{n: n}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.Freeze().M() }

func (g *Graph) check(v int) {
	if v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", v, g.n))
	}
}

// AddEdge inserts the undirected edge {u, v}. Self-loops are rejected;
// re-adding an existing edge is a no-op.
func (g *Graph) AddEdge(u, v int) {
	g.check(u)
	g.check(v)
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at %d", u))
	}
	if g.csr != nil {
		// On a frozen graph an edge already present keeps the CSR; a new
		// one reopens the buffer from it.
		if g.HasEdge(u, v) {
			return
		}
		buf := make([]int64, 0, g.csr.M()+1)
		for _, e := range g.Edges() {
			buf = append(buf, g.key(e[0], e[1]))
		}
		g.buf, g.csr = buf, nil
		g.fp.Store(0)
	}
	g.buf = append(g.buf, g.key(min(u, v), max(u, v)))
}

// Grow makes room for m more edits, so code that knows its edge count
// adds the edges without reallocating. It does nothing to a graph that
// has been read.
func (g *Graph) Grow(m int) {
	if g.csr == nil {
		g.buf = slices.Grow(g.buf, m)
	}
}

func (g *Graph) key(u, v int) int64 { return int64(u)*int64(g.n) + int64(v) }

// Freeze returns the CSR form of g. The first call after an edit sorts
// the edit buffer, drops its repeated edges, builds the CSR from it
// through edgesToCSR and drops the buffer; later calls return the same
// CSR, so callers on hot paths just call Freeze every time. Every other
// read goes through it.
func (g *Graph) Freeze() *CSR {
	if g.csr != nil {
		return g.csr
	}
	slices.Sort(g.buf)
	g.csr = edgesToCSR(g.n, slices.Compact(g.buf))
	g.buf = nil
	return g.csr
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	_, ok := slices.BinarySearch(g.Freeze().Neighbors(u), int32(v))
	return ok
}

// Neighbors returns v's adjacency list in ascending order, as a fresh
// slice the caller owns. Hot paths read Freeze().Neighbors instead.
func (g *Graph) Neighbors(v int) []int {
	g.check(v)
	nb := g.Freeze().Neighbors(v)
	out := make([]int, len(nb))
	for i, w := range nb {
		out[i] = int(w)
	}
	return out
}

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int {
	g.check(v)
	return g.Freeze().Degree(v)
}

// MaxDegree returns Δ(G), or 0 for an edgeless graph.
func (g *Graph) MaxDegree() int {
	c := g.Freeze()
	d := 0
	for v := 0; v < g.n; v++ {
		d = max(d, c.Degree(v))
	}
	return d
}

// Edges returns all edges as ordered pairs (u < v), sorted lexicographically.
func (g *Graph) Edges() [][2]int {
	c := g.Freeze()
	out := make([][2]int, 0, c.M())
	for u := 0; u < g.n; u++ {
		for _, v := range c.Neighbors(u) {
			if int(v) > u {
				out = append(out, [2]int{u, int(v)})
			}
		}
	}
	return out
}

// Clone returns a copy that edits do not tie to g. The two share the
// immutable CSR arrays, and the fingerprint if g has hashed it, until one
// of them is edited, but not the slab form the engine caches on a CSR
// (see CSR.Bits): runs on a clone leave g without one, so a one-off run
// such as a labeling's self-check can execute on a clone and leave
// nothing cached on the labeled graph.
func (g *Graph) Clone() *Graph {
	csr := g.Freeze()
	c := &Graph{n: g.n, csr: &CSR{Offsets: csr.Offsets, Targets: csr.Targets}}
	c.fp.Store(g.fp.Load())
	return c
}

// Validate checks the structural invariants of the CSR: offsets that
// span the targets, and sorted, symmetric, loop-free adjacency. It
// returns nil for every graph this package builds and exists to catch a
// caller that wrote into the exported CSR arrays.
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

// String renders a short summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph(n=%d, m=%d)", g.n, g.M())
}
