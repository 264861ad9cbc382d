package experiments

import (
	"context"
	"fmt"

	"radiobcast/internal/baseline"
	"radiobcast/internal/core"
	"radiobcast/internal/graph"
	"radiobcast/internal/onebit"
	"radiobcast/internal/sweep"
)

// OneBitExperiment covers the paper's §5 one-bit claims: verified
// constructive schemes for paths, cycles and grids; a search-based
// feasibility study on random radius-2 graphs; and the demonstration that
// the conclusion's literal hint (DOM_i ⊆ DOM_{i−1}) stalls.
func OneBitExperiment(cfg Config) ([]*Table, error) {
	constructive := &Table{
		ID:      "ONEBIT-constructive",
		Title:   "Verified 1-bit labelings (delayed-flooding protocol family)",
		Caption: "Every row is machine-verified by exact simulation; completion is the measured round.",
		Columns: []string{"graph", "n", "delays (1-bit/0-bit)", "completion", "verified"},
	}
	sizes := []int{8, 16, 32, 64, 128}
	if cfg.Quick {
		sizes = []int{8, 32}
	}
	for _, n := range sizes {
		s, err := onebit.PathScheme(graph.Path(n), 0)
		if err != nil {
			return nil, err
		}
		constructive.AddRow(fmt.Sprintf("path %d", n), n, "1/never", s.CompletionRound, "yes")
	}
	for _, n := range sizes {
		s, err := onebit.CycleScheme(graph.Cycle(n), 0)
		if err != nil {
			return nil, err
		}
		constructive.AddRow(fmt.Sprintf("cycle %d", n), n, "1/never", s.CompletionRound, "yes")
	}
	gridSizes := [][2]int{{4, 4}, {5, 9}, {9, 5}, {12, 12}, {20, 20}}
	if cfg.Quick {
		gridSizes = [][2]int{{4, 4}, {5, 9}}
	}
	for _, sz := range gridSizes {
		s, g, err := onebit.GridScheme(sz[0], sz[1])
		if err != nil {
			return nil, err
		}
		constructive.AddRow(fmt.Sprintf("grid %dx%d", sz[0], sz[1]), g.N(), "1/2", s.CompletionRound, "yes")
	}

	search := &Table{
		ID:    "ONEBIT-search",
		Title: "1-bit feasibility search on random graphs (hill-climb, 2000 flips)",
		Caption: "families from the paper's §5 claims: source-radius-2 graphs and series-parallel" +
			" graphs; found = labelings completing broadcast under delays 1/2 or 1/never;" +
			" a non-found entry means the search failed, not that no scheme exists.",
		Columns: []string{"family", "n", "instances", "found", "found %"},
	}
	searchNs := []int{6, 8, 10, 12, 14}
	instances := 40
	if cfg.Quick {
		searchNs = []int{6, 10}
		instances = 15
	}
	searchFams := []struct {
		name  string
		build func(n int, seed int64) *graph.Graph
	}{
		{"radius-2", func(n int, seed int64) *graph.Graph { return graph.RandomRadius2(n, 0.3, seed) }},
		{"series-parallel", graph.SeriesParallel},
	}
	for _, fam := range searchFams {
		for _, n := range searchNs {
			seeds := make([]int64, instances)
			for i := range seeds {
				seeds[i] = int64(n*1000 + i)
			}
			found := sweep.Map(seeds, cfg.Workers, func(seed int64) bool {
				g := fam.build(n, seed)
				for _, d := range []baseline.FloodingDelays{baseline.GridDelays, baseline.DefaultDelays} {
					if s, _ := onebit.SearchRandom(context.Background(), g, d, 0, 2000, seed); s != nil {
						return true
					}
				}
				return false
			})
			count := 0
			for _, f := range found {
				if f {
					count++
				}
			}
			search.AddRow(fam.name, n, instances, count, float64(100*count)/float64(instances))
		}
	}

	hint := &Table{
		ID:    "ONEBIT-hint",
		Title: "The conclusion's literal hint (DOM_i ⊆ DOM_{i−1}) stalls",
		Caption: "Restricting the candidate set as printed prevents newly informed nodes from ever" +
			" dominating, so any node at distance 2 from the source is unreachable.",
		Columns: []string{"graph", "n", "restricted construction"},
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"P3", graph.Path(3)},
		{"radius-2 random (n=10)", graph.RandomRadius2(10, 0.3, 7)},
		{"grid3x3", graph.Grid(3, 3)},
	} {
		_, err := core.BuildStages(tc.g, 0, core.BuildOptions{Restricted: true})
		result := "completes"
		if err != nil {
			result = fmt.Sprintf("stalls: %v", err)
		}
		hint.AddRow(tc.name, tc.g.N(), result)
	}
	return []*Table{constructive, search, hint}, nil
}
