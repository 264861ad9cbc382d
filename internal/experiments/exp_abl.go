package experiments

import (
	"fmt"

	"radiobcast"
	"radiobcast/internal/core"
	"radiobcast/internal/domset"
	"radiobcast/internal/graph"
	"radiobcast/internal/sweep"
)

// DomAblationExperiment compares the four minimality prune orders (all
// correct, different schedules) and demonstrates that *skipping* minimality
// breaks the construction: with a non-minimal DOM, a frontier node can be
// adjacent to two dominators forever, so NEW_i empties while the frontier
// does not (Lemma 2.4's progress argument fails).
func DomAblationExperiment(cfg Config) ([]*Table, error) {
	orders := &Table{
		ID:      "ABLDOM-orders",
		Title:   "Prune-order ablation: any minimal DOM works; schedules differ slightly",
		Columns: []string{"family", "n", "order", "ℓ", "completion", "total tx"},
	}
	type job struct {
		c     familyCase
		order domset.PruneOrder
	}
	var jobs []job
	for _, c := range familyGrid(Config{Quick: true, Workers: cfg.Workers}) {
		for _, o := range domset.Orders {
			jobs = append(jobs, job{c, o})
		}
	}
	type row struct {
		fam                    string
		n                      int
		order                  string
		l, completion, totalTx int
		err                    error
	}
	rows := sweep.Map(jobs, cfg.Workers, func(j job) row {
		g := graph.Families[j.c.Family](j.c.N)
		l, err := core.Lambda(g, 0, core.BuildOptions{Order: j.order})
		if err != nil {
			return row{fam: j.c.Family, n: g.N(), order: j.order.String(), err: err}
		}
		out, err := radiobcast.RunLabeled(&radiobcast.Labeling{
			Scheme: "b", Graph: g, Labels: l.Labels, Stages: l.Stages,
		}, radiobcast.WithMessage("m"))
		if err != nil {
			return row{fam: j.c.Family, n: g.N(), order: j.order.String(), err: err}
		}
		if err := radiobcast.Verify(out); err != nil {
			return row{fam: j.c.Family, n: g.N(), order: j.order.String(), err: err}
		}
		return row{
			fam: j.c.Family, n: g.N(), order: j.order.String(),
			l: out.Labeling.Stages.L, completion: out.CompletionRound,
			totalTx: out.Result.TotalTransmissions,
		}
	})
	for _, r := range rows {
		if r.err != nil {
			return nil, fmt.Errorf("%s n=%d %s: %w", r.fam, r.n, r.order, r.err)
		}
		orders.AddRow(r.fam, r.n, r.order, r.l, r.completion, r.totalTx)
	}

	stall := &Table{
		ID:    "ABLDOM-stall",
		Title: "Removing minimality stalls the construction (Lemma 2.4 is load-bearing)",
		Caption: "skip-minimality keeps the full candidate set as DOM; frontier nodes with ≥ 2" +
			" dominators collide forever.",
		Columns: []string{"graph", "n", "standard ℓ", "skip-minimality result"},
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"C4", graph.Cycle(4)},
		{"C6", graph.Cycle(6)},
		{"K2,3", graph.CompleteBipartite(2, 3)},
		{"grid3x3", graph.Grid(3, 3)},
	} {
		std, err := core.BuildStages(tc.g, 0, core.BuildOptions{})
		if err != nil {
			return nil, err
		}
		_, err = core.BuildStages(tc.g, 0, core.BuildOptions{SkipMinimality: true})
		result := "completes (no ≥2-dominator ties on this graph)"
		if err != nil {
			result = fmt.Sprintf("stalls: %v", err)
		}
		stall.AddRow(tc.name, tc.g.N(), std.L, result)
	}
	return []*Table{orders, stall}, nil
}

// ZAblationExperiment demonstrates why λack must pick z among the
// last-informed nodes: an early-informed z makes the source's ack arrive
// before broadcast completion, so "acknowledged" would be a lie.
func ZAblationExperiment(cfg Config) ([]*Table, error) {
	t := &Table{
		ID:      "ABLZ",
		Title:   "z-choice ablation: premature acknowledgements with a wrong z",
		Caption: "correct z = smallest node of NEW_{ℓ−1}; wrong z = a stage-1 node.",
		Columns: []string{"graph", "n", "z", "completion t", "ack t′", "t′ > t"},
	}
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"P8", graph.Path(8)},
		{"figure1", graph.Figure1()},
		{"grid4x4", graph.Grid(4, 4)},
	}
	for _, tc := range cases {
		// Correct choice.
		good, err := radiobcast.Run(radiobcast.NewNetwork(tc.g), "back", radiobcast.WithMessage("m"))
		if err != nil {
			return nil, err
		}
		if err := radiobcast.Verify(good); err != nil {
			return nil, fmt.Errorf("%s: %w", tc.name, err)
		}
		t.AddRow(tc.name, tc.g.N(), fmt.Sprintf("%d (correct)", good.Labeling.Z()),
			good.CompletionRound, good.AckRound, boolMark(good.AckRound > good.CompletionRound))

		// Wrong choice: a node informed in stage 1.
		wrongZ := good.Labeling.Stages.Stage(1).New.Min()
		l, err := core.LambdaAckWithZ(tc.g, 0, wrongZ, core.BuildOptions{})
		if err != nil {
			return nil, err
		}
		bad, err := radiobcast.RunLabeled(&radiobcast.Labeling{
			Scheme: "back", Graph: tc.g, Labels: l.Labels, Stages: l.Stages,
		}, radiobcast.WithMessage("m"))
		if err != nil {
			return nil, err
		}
		if bad.AckRound != 0 && bad.AckRound > bad.CompletionRound {
			return nil, fmt.Errorf("%s: wrong z unexpectedly produced a valid ack", tc.name)
		}
		t.AddRow(tc.name, tc.g.N(), fmt.Sprintf("%d (wrong)", wrongZ),
			bad.CompletionRound, bad.AckRound, boolMark(bad.AckRound > bad.CompletionRound))
	}
	return []*Table{t}, nil
}
