package core

import (
	"fmt"
	"math/bits"
	"slices"

	"radiobcast/internal/domset"
	"radiobcast/internal/graph"
	"radiobcast/internal/nodeset"
)

// buildStagesBitset is the word-parallel construction of §2.1 — the
// preprocessing-side mirror of the bitset run engine. UNINF and FRONTIER
// live as []uint64 bit words over the frozen CSR; per stage, the work is
// proportional to the deltas, not to n:
//
//   - the frontier update touches only NEW_{i−1} and its neighbourhood
//     slabs (FRONTIER_i ∖ NEW_i survivors, then Γ(NEW_{i−1}) ∩ UNINF_i
//     ORed in word-wise), so frontier maintenance is O(Σ slabs(NEW_i)) =
//     O(m) over the whole construction;
//   - minimality pruning runs through domset.Pruner (cover counts with an
//     eq1 bit mirror, word-AND removable tests);
//   - NEW_i ("exactly one DOM_i neighbour") uses the same carry-save
//     trick as the engine's collision resolver: busy2 |= busy1 & slab,
//     busy1 |= slab over DOM_i's slabs, then NEW_i = busy1 ∧ ¬busy2 ∧
//     FRONTIER_i read out of only the touched words.
//
// Combined with the delta storage in Stages, labeling a deep 10⁶-node
// family becomes O(n + m) time and memory, where per-stage full-set
// snapshots alone were Θ(n²) bits. The two ablations branch once per
// stage, outside the word loops: Restricted passes DOM_{i−1} alone as the
// candidates, and SkipMinimality keeps the useful candidates unpruned.
// The tests pin the emitted DOM/NEW lists and stall errors to the
// node-at-a-time oracle in stages_oracle_test.go, for every prune order
// and mode.
//
// Each stage's lists are appended straight onto the Stages' two flat
// arrays. Minimality gives every DOM_i node a private frontier neighbour,
// which has exactly one DOM_i neighbour and so is in NEW_i; hence
// |DOM_i| ≤ |NEW_i|, and since the NEW_i partition V ∖ {source}, the
// standard construction stores at most 2(n−1) nodes over at most n−1
// stages. The arrays start at those bounds, so they never grow (the
// ablations may outgrow them), and are cut to their length on return,
// so the labeling keeps no spare capacity.
//
// The slab form is the kernel's own (graph.NewBitCSR), built at the first
// stage that reads it and returned for labelsFromStages; nil means no
// stage needed it, because the source informs every node in round 1. It
// is not cached on the CSR: a graph that is only labeled keeps no slabs,
// and one the engine runs gets them cached by CSR.Bits then.
func buildStagesBitset(g *graph.Graph, source int, opt BuildOptions) (*Stages, *graph.BitCSR, error) {
	n := g.N()
	if source < 0 || source >= n {
		panic(fmt.Sprintf("core: source %d out of range [0,%d)", source, n))
	}
	csr := g.Freeze()
	var bcsr *graph.BitCSR

	// Stage 1: INF_1 = DOM_1 = {source}, NEW_1 = FRONTIER_1 = Γ(source).
	// When that informs every node (n = 1 included), stage 1 is the only
	// one stored, and the arrays are sized to hold it exactly.
	nbrS := csr.Neighbors(source)
	offCap, nodesCap := 2*n-1, 2*(n-1)
	if 1+len(nbrS) == n {
		offCap, nodesCap = 3, n
	}
	st := &Stages{
		G: g, Source: source, Restricted: opt.Restricted,
		off:   make([]int32, 1, offCap),
		nodes: make([]int32, 0, nodesCap),
	}
	defer func() { st.off, st.nodes = trimmed(st.off), trimmed(st.nodes) }()
	st.nodes = append(append(st.nodes, int32(source)), nbrS...)
	st.off = append(st.off, 1, int32(len(st.nodes)))
	if n == 1 {
		st.L = 1
		return st, nil, nil
	}

	nw := (n + 63) / 64
	uninfW := make([]uint64, nw)
	for i := range uninfW {
		uninfW[i] = ^uint64(0)
	}
	if n%64 != 0 {
		uninfW[nw-1] = (uint64(1) << (uint(n) & 63)) - 1
	}
	uninfW[source>>6] &^= 1 << (uint(source) & 63)
	frontierW := make([]uint64, nw)
	for _, w := range nbrS {
		frontierW[w>>6] |= 1 << (uint(w) & 63)
	}
	frontierCount := len(nbrS)
	informed := 1

	pruner := domset.NewPruner(n)
	// Carry-save accumulators for the exactly-one-neighbour classification,
	// plus a touched-word list so only dirtied words are read and cleared.
	busy1 := make([]uint64, nw)
	busy2 := make([]uint64, nw)
	wmark := make([]bool, nw)
	var wlist []int32
	var merged []int32

	for i := 2; ; i++ {
		prevDom, prevNew := st.Lists(i - 1)
		informed += len(prevNew)
		if informed == n {
			st.L = i
			return st, bcsr, nil
		}
		if bcsr == nil {
			bcsr = graph.NewBitCSR(csr)
		}

		// UNINF_i = UNINF_{i−1} ∖ NEW_{i−1}; the frontier survivors
		// FRONTIER_{i−1} ∩ UNINF_i are exactly FRONTIER_{i−1} ∖ NEW_{i−1}.
		for _, v := range prevNew {
			uninfW[v>>6] &^= 1 << (uint(v) & 63)
			frontierW[v>>6] &^= 1 << (uint(v) & 63)
		}
		frontierCount -= len(prevNew)
		// Grow by Γ(NEW_{i−1}) ∩ UNINF_i, counting only genuinely new bits.
		for _, v := range prevNew {
			words, masks := bcsr.Slabs(int(v))
			for k, wi := range words {
				if add := masks[k] & uninfW[wi] &^ frontierW[wi]; add != 0 {
					frontierW[wi] |= add
					frontierCount += bits.OnesCount64(add)
				}
			}
		}

		// Candidates DOM_{i−1} ∪ NEW_{i−1}: the two lists are disjoint
		// (DOM ⊆ INF, NEW ⊆ UNINF) and sorted, so a plain merge. The
		// Restricted ablation takes DOM_{i−1} alone.
		cands := prevDom
		if !opt.Restricted {
			merged = mergeSortedInt32(merged[:0], prevDom, prevNew)
			cands = merged
		}
		// DOM_i goes onto the nodes array. When the candidates do not
		// dominate FRONTIER_i, stage i is not stored.
		domStart := len(st.nodes)
		if opt.SkipMinimality {
			st.nodes = appendUseful(st.nodes, bcsr, cands, frontierW)
			if !domset.Dominates(g, nodeset.OfInt32(n, st.nodes[domStart:]), nodeset.FromWords(n, frontierW)) {
				st.nodes = st.nodes[:domStart]
				st.Stalled = i
				return st, bcsr, fmt.Errorf("core: stage %d: candidates do not dominate frontier (skip-minimality mode)", i)
			}
		} else {
			var err error
			st.nodes, err = pruner.Prune(st.nodes, csr, bcsr, cands, frontierW, frontierCount, opt.Order)
			if err != nil {
				st.Stalled = i
				return st, bcsr, fmt.Errorf("core: stage %d: %v (restricted=%v)", i, err, opt.Restricted)
			}
		}
		st.off = append(st.off, int32(len(st.nodes)))

		// NEW_i = FRONTIER_i nodes covered by exactly one DOM_i member.
		wlist = wlist[:0]
		for _, c := range st.nodes[domStart:] {
			words, masks := bcsr.Slabs(int(c))
			for k, wi := range words {
				if !wmark[wi] {
					wmark[wi] = true
					wlist = append(wlist, wi)
				}
				busy2[wi] |= busy1[wi] & masks[k]
				busy1[wi] |= masks[k]
			}
		}
		// Touched words in ascending order make the extracted list ascending.
		slices.Sort(wlist)
		newStart := len(st.nodes)
		for _, wi := range wlist {
			x := busy1[wi] &^ busy2[wi] & frontierW[wi]
			base := int32(wi) << 6
			for ; x != 0; x &= x - 1 {
				st.nodes = append(st.nodes, base|int32(bits.TrailingZeros64(x)))
			}
			busy1[wi], busy2[wi] = 0, 0
			wmark[wi] = false
		}
		st.off = append(st.off, int32(len(st.nodes)))

		if len(st.nodes) == newStart {
			// Lemma 2.4 rules this out for the standard construction; the
			// SkipMinimality ablation exists to reach it.
			st.Stalled = i
			return st, bcsr, fmt.Errorf("core: stage %d: no progress (NEW empty, frontier %v)", i, nodeset.FromWords(n, frontierW))
		}
		if i > n {
			st.Stalled = i
			return st, bcsr, fmt.Errorf("core: stage count exceeded n=%d (Lemma 2.6 violated)", n)
		}
	}
}

// appendUseful appends DOM_i under the SkipMinimality ablation to dst:
// every candidate with a frontier neighbour, unpruned.
func appendUseful(dst []int32, bcsr *graph.BitCSR, cands []int32, frontierW []uint64) []int32 {
	for _, c := range cands {
		words, masks := bcsr.Slabs(int(c))
		for k, wi := range words {
			if masks[k]&frontierW[wi] != 0 {
				dst = append(dst, c)
				break
			}
		}
	}
	return dst
}

// trimmed returns s in an array of its own length: s itself when it has
// no spare capacity, else a copy.
func trimmed(s []int32) []int32 {
	if len(s) == cap(s) {
		return s
	}
	return slices.Clone(s)
}

// mergeSortedInt32 merges two sorted, disjoint lists into dst.
func mergeSortedInt32(dst, a, b []int32) []int32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			dst = append(dst, a[i])
			i++
		} else {
			dst = append(dst, b[j])
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}
