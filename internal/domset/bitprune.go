package domset

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"radiobcast/internal/graph"
	"radiobcast/internal/nodeset"
)

// Pruner is the word-parallel form of MinimalSubset, and the pruner the
// stage construction in package core runs: candidates arrive as a sorted
// int32 list, targets as a frontier bit-word vector, and the minimal
// subset is appended, ascending, to the caller's int32 list. The
// algorithm is the same greedy-removal loop as MinimalSubset — same
// usefulness filter, same candidate permutation per PruneOrder (including
// the stable degree sorts), same removable test, same decrements — so for
// equal inputs the two produce the identical set. The speed comes from
// two word-level tricks:
//
//   - cover counts are exact per-target int32s, but the *removable* test
//     ("does c have a target neighbour with cover exactly 1?") runs as
//     slabs(c) ∩ frontier ∩ eq1 over words, where eq1 mirrors the
//     cover==1 targets as a bitset maintained on every ±1 update;
//   - domination is checked by comparing the count of targets first
//     touched during the scatter against the caller-supplied frontier
//     popcount, so the happy path never scans the target vector at all.
//
// A Pruner amortizes its scratch (cover, eq1, touched list) across the
// stages of one construction; cover and eq1 are cleared sparsely on exit,
// touching only the words the call dirtied. Not safe for concurrent use.
type Pruner struct {
	n     int
	cover []int32  // cover[t] = |Γ(t) ∩ kept candidates|, zero outside calls
	eq1   []uint64 // bit t set iff cover[t] == 1, zero outside calls
	tlist []int32  // targets touched by the current call, for sparse reset
	kept  []int32  // useful candidates, ascending
	ord   []int32  // removal-order permutation: indices into kept
}

// NewPruner returns a Pruner for graphs over n nodes.
func NewPruner(n int) *Pruner {
	return &Pruner{
		n:     n,
		cover: make([]int32, n),
		eq1:   make([]uint64, (n+63)/64),
	}
}

// Prune appends to dst the minimal subset of candidates dominating the
// frontier, matching MinimalSubset(g, candidates, frontier, order)
// element for element, and returns the extended slice; on error it
// returns dst as it was. bcsr is the slab form of csr (graph.NewBitCSR),
// which the caller builds once per construction. candidates must be
// sorted ascending and may lie in dst below its length; frontierW is the
// frontier as bit words with frontierCount bits set. Scratch state is
// reset before returning on every path, including the error path.
func (p *Pruner) Prune(dst []int32, csr *graph.CSR, bcsr *graph.BitCSR, candidates []int32, frontierW []uint64, frontierCount int, order PruneOrder) ([]int32, error) {
	p.kept = p.kept[:0]
	p.tlist = p.tlist[:0]
	defer func() {
		for _, t := range p.tlist {
			p.cover[t] = 0
			p.eq1[t>>6] &^= 1 << (uint(t) & 63)
		}
	}()

	// Scatter: count, per frontier target, its neighbours among the
	// candidates, maintaining the eq1 mirror and recording first touches.
	covered := 0
	for _, c := range candidates {
		words, masks := bcsr.Slabs(int(c))
		useful := false
		for k, wi := range words {
			x := masks[k] & frontierW[wi]
			if x == 0 {
				continue
			}
			useful = true
			base := int32(wi) << 6
			for ; x != 0; x &= x - 1 {
				t := base | int32(bits.TrailingZeros64(x))
				p.cover[t]++
				switch p.cover[t] {
				case 1:
					covered++
					p.tlist = append(p.tlist, t)
					p.eq1[wi] |= 1 << (uint(t) & 63)
				case 2:
					p.eq1[wi] &^= 1 << (uint(t) & 63)
				}
			}
		}
		if useful {
			p.kept = append(p.kept, c)
		}
	}
	if covered != frontierCount {
		// Error path only: find the first undominated target to report,
		// mirroring MinimalSubset's message.
		for wi, w := range frontierW {
			for x := w; x != 0; x &= x - 1 {
				t := int32(wi)<<6 | int32(bits.TrailingZeros64(x))
				if p.cover[t] == 0 {
					return dst, fmt.Errorf("domset: target %d not dominated by candidate set %v",
						t, nodeset.OfInt32(p.n, candidates))
				}
			}
		}
	}

	// Removal order: a permutation of kept positions, matching
	// orderedElements (ascending input + the same stable comparators).
	k := len(p.kept)
	if cap(p.ord) < k {
		p.ord = make([]int32, k)
	}
	p.ord = p.ord[:k]
	for i := range p.ord {
		p.ord[i] = int32(i)
	}
	switch order {
	case Ascending:
	case Descending:
		for i, j := 0, k-1; i < j; i, j = i+1, j-1 {
			p.ord[i], p.ord[j] = p.ord[j], p.ord[i]
		}
	case DegreeAsc:
		slices.SortStableFunc(p.ord, func(a, b int32) int {
			return cmp.Compare(csr.Degree(int(p.kept[a])), csr.Degree(int(p.kept[b])))
		})
	case DegreeDesc:
		slices.SortStableFunc(p.ord, func(a, b int32) int {
			return cmp.Compare(csr.Degree(int(p.kept[b])), csr.Degree(int(p.kept[a])))
		})
	}

	// Greedy removal: c is removable iff it has no target neighbour that
	// only c covers — one masked AND against eq1 per slab.
	for _, pos := range p.ord {
		c := int(p.kept[pos])
		words, masks := bcsr.Slabs(c)
		removable := true
		for k, wi := range words {
			if masks[k]&frontierW[wi]&p.eq1[wi] != 0 {
				removable = false
				break
			}
		}
		if !removable {
			continue
		}
		p.kept[pos] = -1 - p.kept[pos] // mark without losing ascending order
		for k, wi := range words {
			x := masks[k] & frontierW[wi]
			base := int32(wi) << 6
			for ; x != 0; x &= x - 1 {
				t := base | int32(bits.TrailingZeros64(x))
				p.cover[t]--
				switch p.cover[t] {
				case 1:
					p.eq1[wi] |= 1 << (uint(t) & 63)
				case 0:
					p.eq1[wi] &^= 1 << (uint(t) & 63)
				}
			}
		}
	}

	for i, c := range p.kept {
		if c >= 0 {
			dst = append(dst, c)
		} else {
			p.kept[i] = -1 - c // unmark so tlist reset assumptions stay local
		}
	}
	return dst, nil
}
