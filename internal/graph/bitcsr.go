package graph

import "math/bits"

// BitCSR is the word-parallel companion of a CSR: each node's sorted
// adjacency list is regrouped into neighborhood slabs — (word, mask)
// pairs where word indexes a 64-node block of the node space and mask
// has one bit set per neighbour inside that block. A transmitter's
// neighbourhood is then ORed into per-word channel accumulators in
// O(slabs) word operations instead of O(degree) per-node writes, which
// is what lets the bitset engine resolve collisions without touching
// individual listeners (see internal/radio).
//
// Consecutive neighbours sharing a 64-block share one slab, so for the
// sparse families (paths, grids, trees, sparse G(n,p)) the slab count is
// close to the degree, while for locally dense graphs (cliques, dense
// neighbourhoods) it approaches degree/64.
type BitCSR struct {
	// Off has n+1 entries; node v's slabs are Words[Off[v]:Off[v+1]]
	// paired with Masks[Off[v]:Off[v+1]].
	Off []int32
	// Words holds the 64-node block index of each slab, strictly
	// ascending within a node.
	Words []int32
	// Masks holds the neighbour bits of each slab.
	Masks []uint64
}

// Slabs returns node v's neighborhood slabs as parallel word/mask views.
// The slices are owned by the BitCSR and must not be modified.
func (b *BitCSR) Slabs(v int) ([]int32, []uint64) {
	lo, hi := b.Off[v], b.Off[v+1]
	return b.Words[lo:hi], b.Masks[lo:hi]
}

// FirstIn returns the smallest neighbour of v whose bit is set in words
// (the same 64-per-word layout as nodeset and the engine state), or -1 if
// no neighbour is in the set. Slabs are stored in ascending word order and
// TrailingZeros finds the lowest bit, so the scan is word-parallel yet
// returns exactly the ascending-order answer a per-neighbour loop would —
// this is what the stay-sender pick of §2.2 and the stage kernel use to
// stay bit-identical to the node-at-a-time reference construction.
func (b *BitCSR) FirstIn(v int, words []uint64) int {
	lo, hi := b.Off[v], b.Off[v+1]
	for k := lo; k < hi; k++ {
		wi := b.Words[k]
		if x := b.Masks[k] & words[wi]; x != 0 {
			return int(wi)<<6 | bits.TrailingZeros64(x)
		}
	}
	return -1
}

// CountIn returns the number of neighbours of v whose bit is set in words
// — one popcount per slab instead of a membership test per neighbour.
func (b *BitCSR) CountIn(v int, words []uint64) int {
	lo, hi := b.Off[v], b.Off[v+1]
	c := 0
	for k := lo; k < hi; k++ {
		c += bits.OnesCount64(b.Masks[k] & words[b.Words[k]])
	}
	return c
}

// Bits returns the slab form of the CSR, building it on first use and
// caching it on the CSR, where it stays as long as the CSR. Only the
// engine calls it: a graph that is run is usually run many times. Callers
// that need the slabs once, such as the labeling kernel, build a private
// copy with NewBitCSR instead, so a graph that is only labeled does not
// keep them. Unlike Freeze, the cache is safe for concurrent use: a
// frozen graph shared across goroutines (the sweep pool, the serving
// daemon) may have the slab form built lazily from inside concurrent
// runs. Two racing builders do redundant work; both end up with the same
// immutable winner.
func (c *CSR) Bits() *BitCSR {
	if b := c.bits.Load(); b != nil {
		return b
	}
	b := NewBitCSR(c)
	if !c.bits.CompareAndSwap(nil, b) {
		return c.bits.Load() // a racing builder won; adopt its (identical) result
	}
	return b
}

// NewBitCSR builds the slab form of c without caching it: the result is
// the caller's, and becomes garbage when the caller drops it.
func NewBitCSR(c *CSR) *BitCSR {
	n := c.N()
	b := &BitCSR{Off: make([]int32, n+1)}
	// First pass: count slabs so Words/Masks allocate exactly once.
	slabs := 0
	for v := 0; v < n; v++ {
		prev := int32(-1)
		for _, w := range c.Neighbors(v) {
			if blk := w >> 6; blk != prev {
				slabs++
				prev = blk
			}
		}
	}
	b.Words = make([]int32, 0, slabs)
	b.Masks = make([]uint64, 0, slabs)
	for v := 0; v < n; v++ {
		b.Off[v] = int32(len(b.Words))
		prev := int32(-1)
		for _, w := range c.Neighbors(v) {
			blk := w >> 6
			bit := uint64(1) << (uint(w) & 63)
			if blk == prev {
				b.Masks[len(b.Masks)-1] |= bit
			} else {
				b.Words = append(b.Words, blk)
				b.Masks = append(b.Masks, bit)
				prev = blk
			}
		}
	}
	b.Off[n] = int32(len(b.Words))
	return b
}
