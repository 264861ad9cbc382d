// Package domsettest holds MinimalSubset, the set-at-a-time reference
// pruner: the tests of package domset pin the word-parallel Pruner to it,
// and the stage oracle in the tests of package core prunes with it, so
// that oracle shares no code with the stage kernel.
package domsettest

import (
	"fmt"
	"sort"

	"radiobcast/internal/domset"
	"radiobcast/internal/graph"
	"radiobcast/internal/nodeset"
)

// MinimalSubset returns a minimal subset of candidates that dominates all
// of targets in g: every target has at least one neighbour in the result,
// and removing any single member would break that. Candidates with no
// target neighbour are dropped outright. It returns an error if candidates
// do not dominate targets.
func MinimalSubset(g *graph.Graph, candidates, targets *nodeset.Set, order domset.PruneOrder) (*nodeset.Set, error) {
	n := g.N()
	csr := g.Freeze()
	// cover[t] = number of kept candidates adjacent to target t.
	cover := make([]int, n)
	kept := nodeset.New(n)
	candidates.ForEach(func(c int) {
		useful := false
		for _, w := range csr.Neighbors(c) {
			if targets.Has(int(w)) {
				cover[w]++
				useful = true
			}
		}
		if useful {
			kept.Add(c)
		}
	})
	undominated := -1
	targets.ForEach(func(t int) {
		if cover[t] == 0 && undominated == -1 {
			undominated = t
		}
	})
	if undominated != -1 {
		return nil, fmt.Errorf("domset: target %d not dominated by candidate set %v", undominated, candidates)
	}

	for _, c := range orderedElements(g, kept, order) {
		removable := true
		for _, w := range csr.Neighbors(c) {
			if targets.Has(int(w)) && cover[w] == 1 {
				removable = false
				break
			}
		}
		if removable {
			kept.Remove(c)
			for _, w := range csr.Neighbors(c) {
				if targets.Has(int(w)) {
					cover[w]--
				}
			}
		}
	}
	return kept, nil
}

func orderedElements(g *graph.Graph, s *nodeset.Set, order domset.PruneOrder) []int {
	var elems []int
	s.ForEach(func(v int) { elems = append(elems, v) }) // ascending
	csr := g.Freeze()
	switch order {
	case domset.Ascending:
	case domset.Descending:
		for i, j := 0, len(elems)-1; i < j; i, j = i+1, j-1 {
			elems[i], elems[j] = elems[j], elems[i]
		}
	case domset.DegreeAsc:
		sort.SliceStable(elems, func(i, j int) bool {
			return csr.Degree(elems[i]) < csr.Degree(elems[j])
		})
	case domset.DegreeDesc:
		sort.SliceStable(elems, func(i, j int) bool {
			return csr.Degree(elems[i]) > csr.Degree(elems[j])
		})
	}
	return elems
}
