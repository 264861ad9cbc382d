package core

import (
	"fmt"

	"radiobcast/internal/graph"
	"radiobcast/internal/nodeset"
)

// StageSets extracts the per-stage DOM_i and NEW_i node lists of the
// construction, in stage order. Together with the graph and the source
// they determine the whole structure: INF/UNINF/FRONTIER follow from the
// recurrence of §2.1 — this is exactly the delta representation Stages
// itself stores, so the extraction is a plain copy (see RebuildStages).
func (s *Stages) StageSets() (doms, news [][]int) {
	doms = make([][]int, len(s.doms))
	news = make([][]int, len(s.news))
	for i := range s.doms {
		doms[i] = int32ToIntList(s.doms[i])
		news[i] = int32ToIntList(s.news[i])
	}
	return doms, news
}

func int32ToIntList(xs []int32) []int {
	out := make([]int, len(xs))
	for i, x := range xs {
		out[i] = int(x)
	}
	return out
}

// RebuildStages reconstructs the §2.1 stage structure from its serialized
// core: the graph, the source, ℓ, and the per-stage DOM/NEW lists produced
// by StageSets. Since Stages stores exactly these deltas — INF/UNINF/
// FRONTIER are replayed on demand through the same recurrence BuildStages
// obeys — rebuilding is validation plus normalization: node lists are
// checked against the graph's node range (an error, never a panic; inputs
// may come from an untrusted wire format) and stored sorted and
// duplicate-free, the invariant every delta consumer assumes.
func RebuildStages(g *graph.Graph, source, l int, restricted bool, stalled int, doms, news [][]int) (*Stages, error) {
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
	toList := func(elems []int) ([]int32, error) {
		set := nodeset.New(n)
		for _, v := range elems {
			if v < 0 || v >= n {
				return nil, fmt.Errorf("core: rebuild: stage node %d out of range [0,%d)", v, n)
			}
			set.Add(v)
		}
		return setToInt32(set), nil
	}

	st := &Stages{G: g, Source: source, L: l, Restricted: restricted, Stalled: stalled}
	st.doms = make([][]int32, len(doms))
	st.news = make([][]int32, len(news))
	for i := range doms {
		var err error
		if st.doms[i], err = toList(doms[i]); err != nil {
			return nil, err
		}
		if st.news[i], err = toList(news[i]); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// setToInt32 extracts a set's members as an ascending int32 list — the
// delta-storage form of Stages.
func setToInt32(s *nodeset.Set) []int32 {
	out := make([]int32, 0, s.Count())
	s.ForEach(func(v int) { out = append(out, int32(v)) })
	return out
}
