package core

import (
	"fmt"
	"slices"

	"radiobcast/internal/graph"
)

// Lists returns the DOM_i and NEW_i node lists of stage i (1-based), in
// ascending order. Together with the graph and the source the lists of
// every stage determine the whole structure: INF/UNINF/FRONTIER follow
// from the recurrence of §2.1. They are the delta representation Stages
// itself stores, returned without a copy, so the caller must not modify
// them. Panics if i is out of range.
func (s *Stages) Lists(i int) (dom, nw []int32) {
	return s.doms[i-1], s.news[i-1]
}

// RebuildStages reconstructs the §2.1 stage structure from its serialized
// core: the graph, the source, ℓ, and the per-stage DOM/NEW lists that
// Lists returns. Since Stages stores exactly these deltas — INF/UNINF/
// FRONTIER are replayed on demand through the same recurrence BuildStages
// obeys — rebuilding is validation plus normalization: node lists are
// checked against the graph's node range (an error, never a panic; inputs
// may come from an untrusted wire format) and stored ascending and
// duplicate-free, the invariant every delta consumer assumes. The lists
// become the returned Stages' storage: one that is already strictly
// ascending is kept as it is, any other is sorted and deduplicated in
// place.
func RebuildStages(g *graph.Graph, source, l int, restricted bool, stalled int, doms, news [][]int32) (*Stages, error) {
	n := g.N()
	if source < 0 || source >= n {
		return nil, fmt.Errorf("core: rebuild: source %d out of range [0,%d)", source, n)
	}
	if len(doms) != len(news) {
		return nil, fmt.Errorf("core: rebuild: %d DOM lists but %d NEW lists", len(doms), len(news))
	}
	if len(doms) == 0 {
		return nil, fmt.Errorf("core: rebuild: no stages")
	}
	for _, lists := range [2][][]int32{doms, news} {
		for i, list := range lists {
			ascending := true
			for j, v := range list {
				if v < 0 || int(v) >= n {
					return nil, fmt.Errorf("core: rebuild: stage node %d out of range [0,%d)", v, n)
				}
				if j > 0 && v <= list[j-1] {
					ascending = false
				}
			}
			if !ascending {
				slices.Sort(list)
				lists[i] = slices.Compact(list)
			}
		}
	}
	return &Stages{G: g, Source: source, L: l, Restricted: restricted, Stalled: stalled, doms: doms, news: news}, nil
}
