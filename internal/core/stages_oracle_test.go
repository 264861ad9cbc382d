package core

import (
	"fmt"

	"radiobcast/internal/domset"
	"radiobcast/internal/graph"
	"radiobcast/internal/nodeset"
)

// neighborhood returns Γ(X): the nodes adjacent to at least one member of
// X (the paper's Γ; note Γ(X) may intersect X).
func neighborhood(csr *graph.CSR, x *nodeset.Set) *nodeset.Set {
	out := nodeset.New(csr.N())
	x.ForEach(func(v int) {
		for _, w := range csr.Neighbors(v) {
			out.Add(int(w))
		}
	})
	return out
}

// buildStagesOracle is the node-at-a-time reference construction of §2.1:
// the sets are full nodeset.Sets updated per stage, exactly the loop the
// paper describes. The differential tests and FuzzStagesMatchOracle pin
// BuildStages to it in every mode, ablations and stall errors included.
func buildStagesOracle(g *graph.Graph, source int, opt BuildOptions) (*Stages, error) {
	n := g.N()
	st := &Stages{G: g, Source: source, Restricted: opt.Restricted, off: []int32{0}}
	csr := g.Freeze()

	inf := nodeset.Of(n, source)
	uninf := nodeset.Full(n)
	uninf.Remove(source)
	frontier := nodeset.New(n)
	for _, w := range csr.Neighbors(source) {
		frontier.Add(int(w))
	}
	dom := nodeset.Of(n, source)
	newSet := frontier.Clone()

	st.appendStage(dom, newSet)
	if inf.Count()+newSet.Count() == n && n == 1 {
		st.L = 1
		return st, nil
	}

	for i := 2; ; i++ {
		prevDom, prevNew := dom, newSet
		inf = nodeset.Union(inf, prevNew)
		if inf.Count() == n {
			st.L = i
			return st, nil
		}
		uninf = nodeset.Subtract(uninf, prevNew)
		// FRONTIER_i = UNINF_i ∩ Γ(INF_i), computed incrementally:
		// previous frontier survivors plus uninformed neighbours of NEW_{i−1}.
		frontier = nodeset.Intersect(frontier, uninf)
		frontier.UnionWith(nodeset.Intersect(neighborhood(csr, prevNew), uninf))

		candidates := prevDom.Clone()
		if !opt.Restricted {
			candidates.UnionWith(prevNew)
		}
		if opt.SkipMinimality {
			dom = restrictToUseful(g, candidates, frontier)
			if !domset.Dominates(g, dom, frontier) {
				st.Stalled = i
				return st, fmt.Errorf("core: stage %d: candidates do not dominate frontier (skip-minimality mode)", i)
			}
		} else {
			var err error
			dom, err = domset.MinimalSubset(g, candidates, frontier, opt.Order)
			if err != nil {
				st.Stalled = i
				return st, fmt.Errorf("core: stage %d: %v (restricted=%v)", i, err, opt.Restricted)
			}
		}

		newSet = exactlyOneNeighbor(g, frontier, dom)
		st.appendStage(dom, newSet)
		if newSet.Empty() {
			// Lemma 2.4 guarantees this never happens in the standard
			// construction; it does happen with SkipMinimality.
			st.Stalled = i
			return st, fmt.Errorf("core: stage %d: no progress (NEW empty, frontier %v)", i, frontier)
		}
		if i > n {
			st.Stalled = i
			return st, fmt.Errorf("core: stage count exceeded n=%d (Lemma 2.6 violated)", n)
		}
	}
}

// appendStage records one stage's DOM/NEW delta lists, each as an
// ascending run of the flat nodes array — the storage form of Stages.
func (s *Stages) appendStage(dom, newSet *nodeset.Set) {
	for _, set := range [2]*nodeset.Set{dom, newSet} {
		set.ForEach(func(v int) { s.nodes = append(s.nodes, int32(v)) })
		s.off = append(s.off, int32(len(s.nodes)))
	}
}

// restrictToUseful keeps candidates with at least one frontier neighbour.
func restrictToUseful(g *graph.Graph, candidates, frontier *nodeset.Set) *nodeset.Set {
	csr := g.Freeze()
	kept := nodeset.New(g.N())
	candidates.ForEach(func(c int) {
		for _, w := range csr.Neighbors(c) {
			if frontier.Has(int(w)) {
				kept.Add(c)
				return
			}
		}
	})
	return kept
}
