package core

import (
	"fmt"
	"sync"

	"radiobcast/internal/domset"
	"radiobcast/internal/graph"
	"radiobcast/internal/nodeset"
)

// Stage holds the five sets of one stage i of the construction in §2.1.
type Stage struct {
	// Inf is INF_i: nodes informed before round 2i−1.
	Inf *nodeset.Set
	// Uninf is UNINF_i: nodes not informed before round 2i−1.
	Uninf *nodeset.Set
	// Frontier is FRONTIER_i: uninformed nodes adjacent to an informed one.
	Frontier *nodeset.Set
	// Dom is DOM_i: the minimal dominating subset that transmits in round 2i−1.
	Dom *nodeset.Set
	// New is NEW_i: frontier nodes adjacent to exactly one DOM_i node —
	// exactly the nodes newly informed in round 2i−1 (Lemma 2.8).
	New *nodeset.Set
}

// Stages is the full construction for a (graph, source) pair.
//
// Storage is delta-compressed: only the DOM_i and NEW_i node lists are
// kept — the representation the wire codec already proved sufficient,
// since INF/UNINF/FRONTIER follow deterministically from the recurrence
// INF_{i+1} = INF_i ∪ NEW_i, FRONTIER_{i+1} = (FRONTIER_i ∖ NEW_i) ∪
// (Γ(NEW_i) ∩ UNINF_{i+1}). That replaces the former five-full-sets-per-
// stage snapshots, Θ(n·ℓ) = Θ(n²) bits on deep (path-like) families,
// with Θ(n + Σ_i |DOM_i| + |NEW_i|) words, which is O(n + m) overall —
// the change that makes million-node labelings storable. The lists sit
// in two flat arrays, as graph.CSR stores its rows, so a stage costs
// two offsets and its nodes, whatever ℓ is. Stage(i) materializes the
// five sets on demand by replaying the recurrence through a cached
// forward cursor, so sequential consumers (λ verification, invariant
// checks, stage dumps) pay O(deltas) per step.
type Stages struct {
	G      *graph.Graph
	Source int
	// L is ℓ: the smallest i with INF_i = V(G). Stages 1..ℓ−1 are stored
	// when ℓ > 1 (stage ℓ has INF = V and is not stored; DOM_ℓ/NEW_ℓ are
	// empty by construction).
	L int
	// Restricted reports whether the construction used the conclusion's
	// restricted recursion DOM_i ⊆ DOM_{i−1} (see BuildOptions).
	Restricted bool
	// Stalled is the stage at which a restricted construction could not
	// continue (0 when the construction completed). Only a restricted
	// construction can stall; the standard one always progresses (Lemma 2.5).
	Stalled int

	// nodes holds the DOM_1, NEW_1, DOM_2, NEW_2, … node lists back to
	// back, in the order the wire format writes them, and list j is
	// nodes[off[j]:off[j+1]]: DOM_i is list 2i−2 and NEW_i list 2i−1.
	// Each list is ascending and duplicate-free. The two arrays are the
	// entire stored state of the construction (Lists reads them).
	off, nodes []int32

	// mu guards cur so Stage(i) is safe for concurrent readers (the
	// Session shares cached labelings across requests).
	mu  sync.Mutex
	cur stageCursor
}

// stageCursor is the replay state for Stage(i): the three derived sets at
// stage idx. Forward access advances by one NEW delta; backward access
// restarts from stage 1.
type stageCursor struct {
	idx                  int // stage currently materialized; 0 = unset
	inf, uninf, frontier *nodeset.Set
}

// BuildOptions tunes the construction.
type BuildOptions struct {
	// Order is the minimality prune order (default Ascending; any order
	// yields a correct scheme — the ABLDOM experiment compares them).
	Order domset.PruneOrder
	// Restricted, when true, replaces the candidate set DOM_{i−1} ∪ NEW_{i−1}
	// with DOM_{i−1} as hinted in the paper's conclusion for the 1-bit
	// radius-2 scheme. This recursion stalls on general graphs (the hint as
	// literally stated is incomplete); we implement it to document that.
	Restricted bool
	// SkipMinimality, when true, keeps every candidate with a frontier
	// neighbour instead of a minimal subset. This deliberately violates the
	// construction to demonstrate that minimality is load-bearing: NEW_i
	// can become empty while FRONTIER_i is not (breaking Lemma 2.4). Used
	// by ablations only.
	SkipMinimality bool
}

// BuildStages runs the construction of §2.1 and returns the stage sets.
// It returns an error only in the deliberately broken modes (Restricted or
// SkipMinimality) when progress stops; the standard construction always
// completes on connected graphs. Every mode runs the word-parallel kernel
// of stages_bitset.go.
func BuildStages(g *graph.Graph, source int, opt BuildOptions) (*Stages, error) {
	st, _, err := buildStagesBitset(g, source, opt)
	return st, err
}

// Stage returns stage i (1-based). Panics if out of range.
//
// The five sets are materialized from the DOM/NEW deltas: Dom and New
// directly from the stored lists, Inf/Uninf/Frontier by replaying the
// recurrence on a cursor cached inside the Stages. Sequential ascending
// access — the pattern of every consumer in this repository — costs
// O(|NEW_{i−1}| + deg(NEW_{i−1})) per step plus the O(n) clone of the
// returned sets; jumping backward restarts the replay from stage 1. The
// returned sets are private copies; mutating them does not affect s.
func (s *Stages) Stage(i int) Stage {
	if i < 1 || i > s.NumStored() {
		panic(fmt.Sprintf("core: stage %d out of range [1,%d]", i, s.NumStored()))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cur.idx == 0 || s.cur.idx > i {
		s.resetCursor()
	}
	for s.cur.idx < i {
		s.advanceCursor()
	}
	n := s.G.N()
	dom, nw := s.Lists(i)
	return Stage{
		Inf:      s.cur.inf.Clone(),
		Uninf:    s.cur.uninf.Clone(),
		Frontier: s.cur.frontier.Clone(),
		Dom:      nodeset.OfInt32(n, dom),
		New:      nodeset.OfInt32(n, nw),
	}
}

// resetCursor rewinds the replay to stage 1: INF = {source}, FRONTIER =
// Γ(source).
func (s *Stages) resetCursor() {
	n := s.G.N()
	s.cur.idx = 1
	s.cur.inf = nodeset.Of(n, s.Source)
	s.cur.uninf = nodeset.Full(n)
	s.cur.uninf.Remove(s.Source)
	s.cur.frontier = nodeset.New(n)
	for _, w := range s.G.Freeze().Neighbors(s.Source) {
		s.cur.frontier.Add(int(w))
	}
}

// advanceCursor steps the replay one stage using the NEW delta. Because
// NEW_i ⊆ FRONTIER_i ⊆ UNINF_i, the frontier survivors FRONTIER_i ∩
// UNINF_{i+1} are exactly FRONTIER_i ∖ NEW_i, so the whole step touches
// only NEW_i and its neighbourhoods.
func (s *Stages) advanceCursor() {
	csr := s.G.Freeze()
	_, prevNew := s.Lists(s.cur.idx)
	for _, v := range prevNew {
		s.cur.inf.Add(int(v))
		s.cur.uninf.Remove(int(v))
		s.cur.frontier.Remove(int(v))
	}
	for _, v := range prevNew {
		for _, w := range csr.Neighbors(int(v)) {
			if s.cur.uninf.Has(int(w)) {
				s.cur.frontier.Add(int(w))
			}
		}
	}
	s.cur.idx++
}

// NumStored returns the number of stored stages (ℓ−1 for ℓ > 1, else 1).
func (s *Stages) NumStored() int { return (len(s.off) - 1) / 2 }

// Lists returns the DOM_i and NEW_i node lists of stage i (1-based), in
// ascending order. Together with the graph and the source the lists of
// every stage determine the whole structure: INF/UNINF/FRONTIER follow
// from the recurrence of §2.1. They are the delta representation Stages
// itself stores, returned without a copy, so the caller must not modify
// them. Panics if i is out of range.
func (s *Stages) Lists(i int) (dom, nw []int32) {
	o := s.off[2*i-2 : 2*i+1]
	return s.nodes[o[0]:o[1]:o[1]], s.nodes[o[1]:o[2]:o[2]]
}

// DomUnion returns the union of all DOM_i (the x1 = 1 nodes).
func (s *Stages) DomUnion() *nodeset.Set {
	u := nodeset.New(s.G.N())
	for i := 1; i <= s.NumStored(); i++ {
		dom, _ := s.Lists(i)
		for _, v := range dom {
			u.Add(int(v))
		}
	}
	return u
}

// CheckStageInvariants validates every fact and lemma of §2.1 against the
// computed stages, returning the first violation found. It is used by the
// test suite and the L26 experiment; a nil result machine-checks:
//
//	Fact 2.1:   NEW_i ⊆ FRONTIER_i ⊆ UNINF_i
//	Fact 2.2:   INF_i = INF_1 ∪ ⋃_{j<i} NEW_j and UNINF_i = complement
//	Lemma 2.3:  the NEW_i are pairwise disjoint
//	Lemma 2.4:  INF_i ≠ V ⇒ NEW_i ≠ ∅
//	(step 4):   DOM_i ⊆ DOM_{i−1} ∪ NEW_{i−1}, minimal, dominates FRONTIER_i
//	Lemma 2.6:  ℓ ≤ n
//	Cor. 2.7:   NEW_1 … NEW_{ℓ−1} partition V ∖ {source}
//
// Since the stages are stored as DOM/NEW deltas, the check also exercises
// the replay cursor behind Stage(i) against the independently accumulated
// Fact 2.2 sets.
func CheckStageInvariants(s *Stages) error {
	n := s.G.N()
	if s.L > n {
		return fmt.Errorf("Lemma 2.6 violated: ℓ=%d > n=%d", s.L, n)
	}
	accNew := nodeset.New(n)
	var prev Stage
	for i := 1; i <= s.NumStored(); i++ {
		stage := s.Stage(i)
		if !stage.New.SubsetOf(stage.Frontier) || !stage.Frontier.SubsetOf(stage.Uninf) {
			return fmt.Errorf("Fact 2.1 violated at stage %d", i)
		}
		wantInf := nodeset.Of(n, s.Source).UnionWith(accNew)
		if !stage.Inf.Equal(wantInf) {
			return fmt.Errorf("Fact 2.2 violated at stage %d: INF=%v want %v", i, stage.Inf, wantInf)
		}
		wantUninf := nodeset.Subtract(nodeset.Full(n), wantInf)
		if !stage.Uninf.Equal(wantUninf) {
			return fmt.Errorf("Fact 2.2 violated at stage %d: UNINF=%v want %v", i, stage.Uninf, wantUninf)
		}
		if !accNew.Disjoint(stage.New) {
			return fmt.Errorf("Lemma 2.3 violated at stage %d: NEW sets intersect", i)
		}
		if stage.Inf.Count() < n && stage.New.Empty() && s.Stalled == 0 {
			return fmt.Errorf("Lemma 2.4 violated at stage %d: no progress", i)
		}
		if i >= 2 {
			candidates := nodeset.Union(prev.Dom, prev.New)
			if s.Restricted {
				candidates = prev.Dom.Clone()
			}
			if !stage.Dom.SubsetOf(candidates) {
				return fmt.Errorf("DOM_%d not a subset of DOM_%d ∪ NEW_%d", i, i-1, i-1)
			}
			if !domset.IsMinimal(s.G, stage.Dom, stage.Frontier) {
				return fmt.Errorf("DOM_%d not a minimal dominating set of FRONTIER_%d", i, i)
			}
		}
		// NEW_i definition check.
		want := exactlyOneNeighbor(s.G, stage.Frontier, stage.Dom)
		if !stage.New.Equal(want) {
			return fmt.Errorf("NEW_%d ≠ exactly-one-DOM-neighbour set", i)
		}
		accNew.UnionWith(stage.New)
		prev = stage
	}
	if s.Stalled == 0 {
		// Corollary 2.7: the NEW sets partition V ∖ {source}.
		wantAll := nodeset.Full(n)
		wantAll.Remove(s.Source)
		if !accNew.Equal(wantAll) {
			return fmt.Errorf("Corollary 2.7 violated: ⋃NEW=%v ≠ V∖{s}", accNew)
		}
	}
	return nil
}

// exactlyOneNeighbor returns the frontier nodes with exactly one neighbour
// in dom (the definition of NEW_i).
func exactlyOneNeighbor(g *graph.Graph, frontier, dom *nodeset.Set) *nodeset.Set {
	csr := g.Freeze()
	out := nodeset.New(g.N())
	frontier.ForEach(func(v int) {
		count := 0
		for _, w := range csr.Neighbors(v) {
			if dom.Has(int(w)) {
				count++
				if count > 1 {
					return
				}
			}
		}
		if count == 1 {
			out.Add(v)
		}
	})
	return out
}
