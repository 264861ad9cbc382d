package graph

import (
	"slices"
	"sync/atomic"
)

// CSR is the compressed-sparse-row adjacency of a Graph, and the only
// adjacency a Graph stores: node v's neighbours are
// Targets[Offsets[v]:Offsets[v+1]], in ascending order. Every hot path
// (the radio engine's channel resolution, the §2.1 stage construction,
// dominating-set pruning, the centralized scheduler) reads the two flat
// int32 arrays directly.
//
// The CSR of a Graph, obtained with Graph.Freeze, is immutable. SetEdge
// edits only a caller-owned copy (topology churn).
type CSR struct {
	// Offsets has n+1 entries; node v's adjacency starts at Offsets[v].
	Offsets []int32
	// Targets concatenates all adjacency lists (2m entries).
	Targets []int32

	// bits is the lazily built slab form (see Bits); SetEdge invalidates
	// it. The cache is atomic because a frozen graph is routinely shared
	// across goroutines (sweep pools, the serving daemon), and the bitset
	// engine builds the slab form lazily inside those concurrent runs.
	bits atomic.Pointer[BitCSR]
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

// SetEdge adds (present) or removes the undirected edge {u, v} in place
// and reports whether the adjacency changed. Each change shifts the later
// rows, O(n + m). It is for a caller-owned copy such as the churn model's;
// the CSR of a Graph may be read by other goroutines and must not be
// edited.
func (c *CSR) SetEdge(u, v int, present bool) bool {
	if _, ok := slices.BinarySearch(c.Neighbors(u), int32(v)); u == v || ok == present {
		return false
	}
	c.bits.Store(nil) // the slab form describes the old topology
	c.setArc(u, v, present)
	c.setArc(v, u, present)
	return true
}

// setArc inserts or deletes v in u's row.
func (c *CSR) setArc(u, v int, present bool) {
	i, _ := slices.BinarySearch(c.Neighbors(u), int32(v))
	i += int(c.Offsets[u])
	d := int32(-1)
	if present {
		c.Targets = slices.Insert(c.Targets, i, int32(v))
		d = 1
	} else {
		c.Targets = slices.Delete(c.Targets, i, i+1)
	}
	for w := u + 1; w < len(c.Offsets); w++ {
		c.Offsets[w] += d
	}
}
