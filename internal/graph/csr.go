package graph

import "sync/atomic"

// CSR is the frozen compressed-sparse-row form of a Graph: the adjacency
// of node v is Targets[Offsets[v]:Offsets[v+1]], in ascending order. The
// two flat int32 arrays replace the pointer-chased [][]int adjacency on
// every hot path (the radio engine's channel resolution, the §2.1 stage
// construction, dominating-set pruning, the centralized scheduler), so a
// run touches two contiguous allocations instead of n+1 and the per-node
// indirection disappears.
//
// A CSR is immutable. Obtain one with Graph.Freeze.
type CSR struct {
	// Offsets has n+1 entries; node v's adjacency starts at Offsets[v].
	Offsets []int32
	// Targets concatenates all adjacency lists (2m entries).
	Targets []int32

	// bits is the lazily built slab form (see Bits); FreezeInto
	// invalidates it when the CSR is rebuilt in place. Unlike the Freeze
	// cache it is atomic: pre-frozen graphs are routinely shared across
	// goroutines (sweep pools, the serving daemon), and the bitset engine
	// builds the slab form lazily inside those concurrent runs.
	bits atomic.Pointer[BitCSR]
}

// Freeze returns the CSR form of g, building it on first use and caching
// it until the next AddEdge. Freezing is idempotent and cheap after the
// first call, so callers on hot paths just call Freeze every time.
//
// The cache write is not synchronised: when a graph is shared across
// goroutines (the Sweep worker pool, parallel labelings), call Freeze once
// before handing the graph out; afterwards all uses are read-only.
func (g *Graph) Freeze() *CSR {
	if g.csr != nil {
		return g.csr
	}
	offsets := make([]int32, g.n+1)
	targets := make([]int32, 0, 2*g.m)
	for v := 0; v < g.n; v++ {
		offsets[v] = int32(len(targets))
		for _, w := range g.adj[v] {
			targets = append(targets, int32(w))
		}
	}
	offsets[g.n] = int32(len(targets))
	g.csr = &CSR{Offsets: offsets, Targets: targets}
	return g.csr
}

// Share fills every lazy cache a reader could otherwise fill — the
// adjacency lists of a FromCSR graph, the CSR form and the fingerprint —
// so that g can be handed to concurrent goroutines: afterwards every use
// short of AddEdge or RemoveEdge is a read.
func (g *Graph) Share() {
	g.ensureAdj()
	g.Fingerprint()
}

// FreezeInto rebuilds dst as the CSR form of g, reusing dst's arrays when
// they are large enough. It is the incremental-re-freeze primitive for
// callers that mutate a graph mid-run (topology churn) and want a fresh
// snapshot every few rounds without an allocation per rebuild. Unlike
// Freeze it neither reads nor populates the graph's CSR cache: dst is
// owned by the caller, and later graph mutations do not invalidate it.
func (g *Graph) FreezeInto(dst *CSR) {
	dst.bits.Store(nil) // the slab cache describes the old topology
	if cap(dst.Offsets) < g.n+1 {
		dst.Offsets = make([]int32, g.n+1)
	}
	dst.Offsets = dst.Offsets[:g.n+1]
	if cap(dst.Targets) < 2*g.m {
		dst.Targets = make([]int32, 0, 2*g.m)
	}
	dst.Targets = dst.Targets[:0]
	for v := 0; v < g.n; v++ {
		dst.Offsets[v] = int32(len(dst.Targets))
		for _, w := range g.adj[v] {
			dst.Targets = append(dst.Targets, int32(w))
		}
	}
	dst.Offsets[g.n] = int32(len(dst.Targets))
}

// N returns the number of nodes.
func (c *CSR) N() int { return len(c.Offsets) - 1 }

// M returns the number of edges.
func (c *CSR) M() int { return len(c.Targets) / 2 }

// Neighbors returns v's adjacency in ascending order as a sub-slice of
// Targets. The slice is owned by the CSR and must not be modified.
func (c *CSR) Neighbors(v int) []int32 {
	return c.Targets[c.Offsets[v]:c.Offsets[v+1]]
}

// Degree returns the degree of v.
func (c *CSR) Degree(v int) int {
	return int(c.Offsets[v+1] - c.Offsets[v])
}
