// Package domset computes minimal dominating subsets, the combinatorial
// heart of the paper's stage construction: DOM_i is defined as a *minimal*
// subset of DOM_{i−1} ∪ NEW_{i−1} that dominates FRONTIER_i (§2.1, step 4).
// Minimality — no single member can be removed — is what guarantees
// progress (Lemma 2.4): every member of a minimal dominating set has a
// private neighbour dominated by nobody else, and that private neighbour
// hears the member's transmission without collision.
package domset

import (
	"fmt"
	"sort"

	"radiobcast/internal/graph"
	"radiobcast/internal/nodeset"
)

// PruneOrder selects the order in which candidates are tried for removal
// when reducing a dominating set to a minimal one. The paper allows any
// minimal set; different orders yield different (all correct) labelings,
// which the ABLDOM ablation experiment compares.
type PruneOrder int

const (
	// Ascending tries candidates in ascending node index (the default;
	// all golden values in this repository assume it).
	Ascending PruneOrder = iota
	// Descending tries candidates in descending node index.
	Descending
	// DegreeAsc tries low-degree candidates first (tends to keep hubs).
	DegreeAsc
	// DegreeDesc tries high-degree candidates first (tends to keep leaves).
	DegreeDesc
)

// String names the order for experiment tables.
func (o PruneOrder) String() string {
	switch o {
	case Ascending:
		return "ascending"
	case Descending:
		return "descending"
	case DegreeAsc:
		return "degree-asc"
	case DegreeDesc:
		return "degree-desc"
	default:
		return fmt.Sprintf("order(%d)", int(o))
	}
}

// Orders lists all prune orders (for ablation sweeps).
var Orders = []PruneOrder{Ascending, Descending, DegreeAsc, DegreeDesc}

// MinimalSubset returns a minimal subset of candidates that dominates all
// of targets in g: every target has at least one neighbour in the result,
// and removing any single member would break that. Candidates with no
// target neighbour are dropped outright. It returns an error if candidates
// do not dominate targets.
//
// MinimalSubset is the set-at-a-time reference: the stage construction
// prunes with Pruner, and the tests pin both Pruner and the stage
// oracle of package core to this function.
func MinimalSubset(g *graph.Graph, candidates, targets *nodeset.Set, order PruneOrder) (*nodeset.Set, error) {
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

func orderedElements(g *graph.Graph, s *nodeset.Set, order PruneOrder) []int {
	elems := s.Elements() // ascending
	switch order {
	case Ascending:
	case Descending:
		for i, j := 0, len(elems)-1; i < j; i, j = i+1, j-1 {
			elems[i], elems[j] = elems[j], elems[i]
		}
	case DegreeAsc:
		sort.SliceStable(elems, func(i, j int) bool {
			return g.Degree(elems[i]) < g.Degree(elems[j])
		})
	case DegreeDesc:
		sort.SliceStable(elems, func(i, j int) bool {
			return g.Degree(elems[i]) > g.Degree(elems[j])
		})
	}
	return elems
}

// Dominates reports whether every target has a neighbour in dom.
func Dominates(g *graph.Graph, dom, targets *nodeset.Set) bool {
	csr := g.Freeze()
	ok := true
	targets.ForEach(func(t int) {
		if !ok {
			return
		}
		found := false
		for _, w := range csr.Neighbors(t) {
			if dom.Has(int(w)) {
				found = true
				break
			}
		}
		if !found {
			ok = false
		}
	})
	return ok
}

// IsMinimal reports whether dom dominates targets and no single member can
// be removed: equivalently, every member has a private neighbour among the
// targets (Lemma 2.4's progress witness).
func IsMinimal(g *graph.Graph, dom, targets *nodeset.Set) bool {
	if !Dominates(g, dom, targets) {
		return false
	}
	minimal := true
	dom.ForEach(func(c int) {
		if !minimal {
			return
		}
		if PrivateNeighbor(g, dom, targets, c) == -1 {
			minimal = false
		}
	})
	return minimal
}

// PrivateNeighbor returns a target adjacent to c and to no other member of
// dom, or -1 if none exists.
func PrivateNeighbor(g *graph.Graph, dom, targets *nodeset.Set, c int) int {
	csr := g.Freeze()
	for _, w := range csr.Neighbors(c) {
		if !targets.Has(int(w)) {
			continue
		}
		private := true
		for _, x := range csr.Neighbors(int(w)) {
			if int(x) != c && dom.Has(int(x)) {
				private = false
				break
			}
		}
		if private {
			return int(w)
		}
	}
	return -1
}
