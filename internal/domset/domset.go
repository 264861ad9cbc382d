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
