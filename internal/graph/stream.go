package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// This file is the million-node construction path: a generator that
// fills the edit buffer in O(m) instead of testing all n(n-1)/2 pairs,
// and edgesToCSR, which turns sorted edge keys into the CSR on a graph's
// first read or in FromEdgeKeys.

// streamGNPThreshold is the size at which GNPConnected switches from the
// quadratic pair loop to the streaming geometric-skip sampler. The two
// algorithms draw different random sequences, so the threshold is far
// above every size the golden tests pin.
const streamGNPThreshold = 50000

// StreamGNPConnected is the streaming form of GNPConnected for large n:
// a random attachment tree guarantees connectivity and the G(n,p) pairs
// are drawn by geometric skipping in O(m) instead of testing all n(n-1)/2
// pairs, straight into the edit buffer. Deterministic in seed; the random
// sequence differs from GNPConnected's, so results agree in distribution
// but not bit-for-bit, except at the edges of p, where both give the
// same graph: the tree for p ≤ 0 or NaN, every pair for p ≥ 1.
func StreamGNPConnected(n int, p float64, seed int64) *Graph {
	r := rand.New(rand.NewSource(seed))
	total := int64(n) * int64(n-1) / 2
	// The expected number of sampled pairs: as in GNPConnected, none for
	// p ≤ 0 or NaN and every pair for p ≥ 1.
	expected := 0.0
	switch {
	case p >= 1:
		expected = float64(total)
	case p > 0:
		expected = float64(total) * p
	}
	// Edits of the edges i*n+j (i < j): the tree plus the sampled pairs,
	// deduplicated on the first read.
	keys := make([]int64, 0, n-1+int(expected)+16)
	for i := 1; i < n; i++ {
		j := r.Intn(i)
		keys = append(keys, int64(j)*int64(n)+int64(i))
	}
	c := pairKeys{n: int64(n), keys: keys}
	switch {
	case p >= 1:
		for k := int64(0); k < total; k++ {
			c.add(k)
		}
	case p > 0 && n > 1:
		logq := math.Log1p(-p)
		k := int64(-1)
		for {
			u := r.Float64()
			k += 1 + int64(math.Log1p(-u)/logq)
			if k >= total || k < 0 {
				break
			}
			c.add(k)
		}
	}
	return &Graph{n: n, buf: c.keys}
}

// FromEdgeKeys returns the n-node graph whose edges are the keys
// u·n+v, 0 ≤ u < v < n, with its CSR built straight from them and no
// edit buffer. It sorts keys in place, which takes linear time when they
// arrive in ascending order as a canonical edge list does, and drops a
// key listed twice, so M counts the distinct edges. Keys out of that
// range are a caller's bug: check them first.
func FromEdgeKeys(n int, keys []int64) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	slices.Sort(keys)
	return &Graph{n: n, csr: edgesToCSR(n, slices.Compact(keys))}
}

// edgesToCSR assembles sorted, deduplicated i*n+j edge keys (i < j) into
// a CSR in two counting passes. Per-node target lists come out ascending:
// for node v, the sub-v neighbours arrive while scanning rows 0..v-1 in
// order, then v's own row appends the super-v neighbours in order. The
// keys ascend, so each pass finds a key's row i by moving a cursor over
// the rows instead of dividing by n.
func edgesToCSR(n int, edges []int64) *CSR {
	n64 := int64(n)
	offsets := make([]int32, n+1)
	i, base := 0, int64(0) // the row cursor: base = i·n
	for _, key := range edges {
		for key >= base+n64 {
			i++
			base += n64
		}
		offsets[i+1]++
		offsets[key-base+1]++
	}
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	targets := make([]int32, 2*len(edges))
	cursor := make([]int32, n)
	copy(cursor, offsets[:n])
	i, base = 0, 0
	for _, key := range edges {
		for key >= base+n64 {
			i++
			base += n64
		}
		j := key - base
		targets[cursor[i]] = int32(j)
		cursor[i]++
		targets[cursor[j]] = int32(i)
		cursor[j]++
	}
	return &CSR{Offsets: offsets, Targets: targets}
}
