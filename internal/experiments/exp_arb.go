package experiments

import (
	"fmt"

	"radiobcast"
	"radiobcast/internal/graph"
	"radiobcast/internal/sweep"
)

// ArbitraryExperiment exercises Barb two ways: an exhaustive sweep over all
// (coordinator, source) pairs on small graphs, and a scaling run across the
// family sweep with the source placed far from the coordinator.
func ArbitraryExperiment(cfg Config) ([]*Table, error) {
	exhaustive := &Table{
		ID:      "ARB-exhaustive",
		Title:   "Barb: exhaustive (r, sG) sweep on small graphs",
		Columns: []string{"graph", "n", "pairs", "all correct", "max rounds"},
	}
	small := map[string]*graph.Graph{
		"P5":      graph.Path(5),
		"C6":      graph.Cycle(6),
		"K4":      graph.Complete(4),
		"star6":   graph.Star(6),
		"grid3x3": graph.Grid(3, 3),
		"figure1": graph.Figure1(),
	}
	names := make([]string, 0, len(small))
	for name := range small {
		names = append(names, name)
	}
	sortStrings(names)
	for _, name := range names {
		g := small[name]
		net := radiobcast.NewNetwork(g)
		pairs, maxRounds := 0, 0
		for r := 0; r < g.N(); r++ {
			l, err := radiobcast.LabelNetwork(net, "barb", radiobcast.WithCoordinator(r))
			if err != nil {
				return nil, fmt.Errorf("%s r=%d: %w", name, r, err)
			}
			for src := 0; src < g.N(); src++ {
				out, err := radiobcast.RunLabeled(l, radiobcast.WithSource(src), radiobcast.WithMessage("m"))
				if err != nil {
					return nil, fmt.Errorf("%s r=%d src=%d: %w", name, r, src, err)
				}
				if err := radiobcast.Verify(out); err != nil {
					return nil, fmt.Errorf("%s r=%d src=%d: %w", name, r, src, err)
				}
				pairs++
				if out.Result.Rounds > maxRounds {
					maxRounds = out.Result.Rounds
				}
			}
		}
		exhaustive.AddRow(name, g.N(), pairs, "yes", maxRounds)
	}

	scale := &Table{
		ID:      "ARB-scale",
		Title:   "Barb at scale: r = 0, sG = farthest node",
		Caption: "common round = round in which every node knows broadcast completed; linear in n.",
		Columns: []string{"family", "n", "T", "total rounds", "common round", "rounds/n"},
	}
	type row struct {
		fam                string
		n, T, rounds, know int
		err                error
		skip               bool
	}
	rows := sweep.Map(familyGrid(cfg), cfg.Workers, func(c familyCase) row {
		g := graph.Families[c.Family](c.N)
		if g.N() < 2 {
			return row{skip: true}
		}
		// Source: the node maximising distance from the coordinator 0.
		dist := g.BFS(0)
		src, best := 0, -1
		for v, d := range dist {
			if d > best {
				src, best = v, d
			}
		}
		out, err := radiobcast.Run(radiobcast.NewNetwork(g).At(src), "barb", radiobcast.WithMessage("m"))
		if err != nil {
			return row{fam: c.Family, n: g.N(), err: err}
		}
		if err := radiobcast.Verify(out); err != nil {
			return row{fam: c.Family, n: g.N(), err: err}
		}
		return row{fam: c.Family, n: g.N(), T: out.T, rounds: out.Result.Rounds, know: out.KnowsCompleteRound[0]}
	})
	for _, r := range rows {
		if r.skip {
			continue
		}
		if r.err != nil {
			return nil, fmt.Errorf("%s n=%d: %w", r.fam, r.n, r.err)
		}
		scale.AddRow(r.fam, r.n, r.T, r.rounds, r.know, float64(r.rounds)/float64(r.n))
	}
	return []*Table{exhaustive, scale}, nil
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
