package core

import (
	"fmt"
	"slices"

	"radiobcast/internal/graph"
)

// RebuildStages reconstructs the §2.1 stage structure from its serialized
// core: the graph, the source, ℓ, and the DOM/NEW lists of every stage in
// the flat form Stages stores — nodes holds DOM_1, NEW_1, DOM_2, NEW_2, …
// back to back and list j is nodes[off[j]:off[j+1]], so off has two
// entries per stage after its leading 0. Since Stages stores exactly these
// deltas — INF/UNINF/FRONTIER are replayed on demand through the same
// recurrence BuildStages obeys — rebuilding is validation plus
// normalization: the offsets and the node range are checked (an error,
// never a panic; inputs may come from an untrusted wire format) and every
// list is stored ascending and duplicate-free, the invariant every delta
// consumer assumes. The two arrays become the returned Stages' storage: a
// list that is already strictly ascending is kept as it is, any other is
// sorted and deduplicated in place, and the lists after one that lost
// duplicates move down to close the gap.
func RebuildStages(g *graph.Graph, source, l int, restricted bool, stalled int, off, nodes []int32) (*Stages, error) {
	n := g.N()
	if source < 0 || source >= n {
		return nil, fmt.Errorf("core: rebuild: source %d out of range [0,%d)", source, n)
	}
	if len(off) < 3 || len(off)%2 == 0 {
		return nil, fmt.Errorf("core: rebuild: %d list offsets, want a leading 0 and 2 per stage, at least one stage", len(off))
	}
	if off[0] != 0 || int(off[len(off)-1]) != len(nodes) {
		return nil, fmt.Errorf("core: rebuild: list offsets span [%d,%d), want [0,%d)", off[0], off[len(off)-1], len(nodes))
	}
	for j := 1; j < len(off); j++ {
		if off[j] < off[j-1] {
			return nil, fmt.Errorf("core: rebuild: list offset %d decreases", j)
		}
	}
	w := int32(0) // where the next list starts once the earlier ones are normalized
	for j := 0; j+1 < len(off); j++ {
		start := off[j]
		list := nodes[start:off[j+1]]
		ascending := true
		for k, v := range list {
			if v < 0 || int(v) >= n {
				return nil, fmt.Errorf("core: rebuild: stage node %d out of range [0,%d)", v, n)
			}
			if k > 0 && v <= list[k-1] {
				ascending = false
			}
		}
		if !ascending {
			slices.Sort(list)
			list = slices.Compact(list)
		}
		if w != start {
			copy(nodes[w:], list)
		}
		off[j] = w
		w += int32(len(list))
	}
	off[len(off)-1] = w
	return &Stages{G: g, Source: source, L: l, Restricted: restricted, Stalled: stalled, off: off, nodes: nodes[:w]}, nil
}
