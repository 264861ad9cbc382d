package core

import (
	"fmt"

	"radiobcast/internal/domset"
	"radiobcast/internal/graph"
)

// Labeling bundles the output of a labeling scheme together with the stage
// construction it was derived from, so experiments can inspect both.
type Labeling struct {
	Labels []Label
	Stages *Stages
	// StayPick[w] = i means w ∈ NEW_i was chosen as the "stay" sender that
	// keeps some v ∈ DOM_{i+1} ∩ DOM_i transmitting (x2(w) = 1); 0 if w was
	// not picked.
	StayPick []int32
}

// Lambda computes the 2-bit labeling scheme λ of §2.2 for graph g with
// designated source. The default options (ascending prune order) reproduce
// the golden values used in tests, including Figure 1.
func Lambda(g *graph.Graph, source int, opt BuildOptions) (*Labeling, error) {
	st, bcsr, err := buildStagesBitset(g, source, opt)
	if err != nil {
		return nil, err
	}
	return labelsFromStages(st, bcsr)
}

// labelsFromStages derives λ from the stage deltas. For each i and each
// v ∈ DOM_{i+1} ∩ DOM_i, it picks one w ∈ NEW_i adjacent to v and sets
// x2(w) = 1 (§2.2) — the smallest-index such w, found word-parallel as
// the first set bit of slabs(v) ∩ NEW_i. Lemma 2.4's minimality argument
// guarantees one exists, and because every NEW_i node has exactly one
// DOM_i neighbour, picks for distinct v never interfere (each v hears
// exactly one "stay"). DOM_i ∩ DOM_{i+1} is a merge of the two sorted
// delta lists and NEW_i is materialized as bit words only while stage i
// is in hand, so the whole pass is O(Σ_i |DOM_i| + |NEW_i| + slab reads)
// — no per-stage full-set snapshots anywhere. bcsr is the slab form of
// st.G that built the stages; it may be nil only when st has one stage,
// where no pick is made.
func labelsFromStages(st *Stages, bcsr *graph.BitCSR) (*Labeling, error) {
	n := st.G.N()
	x1 := st.DomUnion()
	x2 := make([]bool, n)
	stayPick := make([]int32, n)

	newW := make([]uint64, (n+63)/64)
	for i := 1; i+1 <= st.NumStored(); i++ {
		curDom, curNew := st.Lists(i)
		nextDom, _ := st.Lists(i + 1)
		for _, w := range curNew {
			newW[w>>6] |= 1 << (uint(w) & 63)
		}
		for ai, bi := 0, 0; ai < len(curDom) && bi < len(nextDom); {
			switch {
			case curDom[ai] < nextDom[bi]:
				ai++
			case curDom[ai] > nextDom[bi]:
				bi++
			default:
				v := int(curDom[ai])
				w := bcsr.FirstIn(v, newW)
				if w == -1 {
					return nil, fmt.Errorf("core: no NEW_%d neighbour for %d ∈ DOM_%d ∩ DOM_%d", i, v, i, i+1)
				}
				x2[w] = true
				stayPick[w] = int32(i)
				ai++
				bi++
			}
		}
		for _, w := range curNew {
			newW[w>>6] &^= 1 << (uint(w) & 63)
		}
	}

	labels := make([]Label, n)
	for v := 0; v < n; v++ {
		labels[v] = MakeLabel(x1.Has(v), x2[v])
	}
	return &Labeling{Labels: labels, Stages: st, StayPick: stayPick}, nil
}

// VerifyLambda checks the structural properties the correctness proof of
// algorithm B relies on (beyond the stage invariants):
//
//   - x1(v) = 1 iff v ∈ ⋃ DOM_i;
//   - every v ∈ DOM_{i+1} ∩ DOM_i has exactly one neighbour in NEW_i with
//     x2 = 1 (so v's "stay" reception in round 2i never collides);
//   - every node with x2 = 1 was picked for exactly one stage.
func VerifyLambda(l *Labeling) error {
	st := l.Stages
	g := st.G
	n := g.N()
	bcsr := graph.NewBitCSR(g.Freeze())
	domUnion := st.DomUnion()
	for v, lab := range l.Labels {
		if lab.X1() != domUnion.Has(v) {
			return fmt.Errorf("core: x1(%d)=%v but DOM-membership=%v", v, lab.X1(), domUnion.Has(v))
		}
	}
	// newX2W holds the x2 = 1 subset of NEW_i as bit words, so the
	// sender count per v is a popcount over slabs(v) ∩ newX2W.
	newX2W := make([]uint64, (n+63)/64)
	for i := 1; i+1 <= st.NumStored(); i++ {
		curDom, curNew := st.Lists(i)
		nextDom, _ := st.Lists(i + 1)
		for _, w := range curNew {
			if l.Labels[w].X2() {
				newX2W[w>>6] |= 1 << (uint(w) & 63)
			}
		}
		for ai, bi := 0, 0; ai < len(curDom) && bi < len(nextDom); {
			switch {
			case curDom[ai] < nextDom[bi]:
				ai++
			case curDom[ai] > nextDom[bi]:
				bi++
			default:
				v := int(curDom[ai])
				if count := bcsr.CountIn(v, newX2W); count != 1 {
					return fmt.Errorf("core: v=%d ∈ DOM_%d ∩ DOM_%d has %d x2-senders in NEW_%d, want 1", v, i, i+1, count, i)
				}
				ai++
				bi++
			}
		}
		for _, w := range curNew {
			newX2W[w>>6] &^= 1 << (uint(w) & 63)
		}
	}
	for w, lab := range l.Labels {
		if lab.X2() && l.StayPick[w] == 0 {
			return fmt.Errorf("core: x2(%d)=1 but node was never picked", w)
		}
		if !lab.X2() && l.StayPick[w] != 0 {
			return fmt.Errorf("core: x2(%d)=0 but node was picked at stage %d", w, l.StayPick[w])
		}
	}
	// Minimality of every DOM_i (the progress engine); Stage(i) replays
	// the frontier sets sequentially from the deltas.
	for i := 2; i <= st.NumStored(); i++ {
		stage := st.Stage(i)
		if !domset.IsMinimal(g, stage.Dom, stage.Frontier) {
			return fmt.Errorf("core: DOM_%d not minimal", i)
		}
	}
	return nil
}
