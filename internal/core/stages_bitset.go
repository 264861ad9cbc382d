package core

import (
	"fmt"
	"math/bits"
	"sort"

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
	st := &Stages{G: g, Source: source, Restricted: opt.Restricted}
	csr := g.Freeze()
	var bcsr *graph.BitCSR

	// Stage 1: INF_1 = DOM_1 = {source}, NEW_1 = FRONTIER_1 = Γ(source).
	nbrS := csr.Neighbors(source)
	st.doms = append(st.doms, []int32{int32(source)})
	st.news = append(st.news, append(make([]int32, 0, len(nbrS)), nbrS...))
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
		prevDom, prevNew := st.doms[i-2], st.news[i-2]
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
		var domList []int32
		if opt.SkipMinimality {
			domList = usefulCandidates(bcsr, cands, frontierW)
			if !domset.Dominates(g, nodeset.OfInt32(n, domList), nodeset.FromWords(n, frontierW)) {
				st.Stalled = i
				return st, bcsr, fmt.Errorf("core: stage %d: candidates do not dominate frontier (skip-minimality mode)", i)
			}
		} else {
			var err error
			domList, err = pruner.Prune(csr, bcsr, cands, frontierW, frontierCount, opt.Order)
			if err != nil {
				st.Stalled = i
				return st, bcsr, fmt.Errorf("core: stage %d: %v (restricted=%v)", i, err, opt.Restricted)
			}
		}

		// NEW_i = FRONTIER_i nodes covered by exactly one DOM_i member.
		wlist = wlist[:0]
		for _, c := range domList {
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
		sort.Slice(wlist, func(a, b int) bool { return wlist[a] < wlist[b] })
		newList := make([]int32, 0, len(prevNew))
		for _, wi := range wlist {
			x := busy1[wi] &^ busy2[wi] & frontierW[wi]
			base := int32(wi) << 6
			for ; x != 0; x &= x - 1 {
				newList = append(newList, base|int32(bits.TrailingZeros64(x)))
			}
			busy1[wi], busy2[wi] = 0, 0
			wmark[wi] = false
		}

		st.doms = append(st.doms, domList)
		st.news = append(st.news, newList)
		if len(newList) == 0 {
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

// usefulCandidates is DOM_i under the SkipMinimality ablation: every
// candidate with a frontier neighbour, unpruned.
func usefulCandidates(bcsr *graph.BitCSR, cands []int32, frontierW []uint64) []int32 {
	dom := make([]int32, 0, len(cands))
	for _, c := range cands {
		words, masks := bcsr.Slabs(int(c))
		for k, wi := range words {
			if masks[k]&frontierW[wi] != 0 {
				dom = append(dom, c)
				break
			}
		}
	}
	return dom
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
