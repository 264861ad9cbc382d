package experiments

import (
	"fmt"

	"radiobcast/internal/core"
	"radiobcast/internal/faults"
	"radiobcast/internal/graph"
	"radiobcast/internal/radio"
	"radiobcast/internal/sweep"
)

// FaultExperiment quantifies how much algorithm B's schedule relies on
// lossless delivery (an extension beyond the paper, which assumes a
// fault-free channel): for every single transmission (v, round) of a
// nominal run, we re-run the broadcast with exactly that transmission
// jammed and record whether broadcast still completes. The expectation is
// high fragility — the schedule is a deterministic relay race, so most µ
// and "stay" transmissions are load-bearing — which is the price of 2-bit
// labels; redundancy would need more label bits or more time.
func FaultExperiment(cfg Config) ([]*Table, error) {
	t := &Table{
		ID:    "FAULT",
		Title: "Single-transmission erasures vs algorithm B (extension)",
		Caption: "events = transmissions in the fault-free run; survived = erased runs that still" +
			" inform everyone (within 4n rounds).",
		Columns: []string{"graph", "n", "events", "survived", "survived %", "fatal µ", "fatal stay"},
	}
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"figure1", graph.Figure1()},
		{"P10", graph.Path(10)},
		{"C12", graph.Cycle(12)},
		{"grid4x4", graph.Grid(4, 4)},
		{"btree15", graph.BinaryTree(15)},
		{"gnp20", graph.GNPConnected(20, 0.2, 9)},
	}
	for _, tc := range cases {
		g := tc.g
		l, err := core.Lambda(g, 0, core.BuildOptions{})
		if err != nil {
			return nil, err
		}
		ps, base, _ := core.PlanBroadcast(g, l, 0, "m")
		nominal := radio.Run(g, ps, base)
		// Enumerate all (node, round) transmission events.
		type event struct{ node, round int }
		var events []event
		for v, rounds := range nominal.Transmits {
			for _, r := range rounds {
				events = append(events, event{v, r})
			}
		}
		type outcome struct {
			survived bool
			wasStay  bool
		}
		// One erasure at a given (node, round) is not expressible as a
		// FaultSpec, so the erased runs stay on the plan with a drop hook.
		results := sweep.Map(events, cfg.Workers, func(e event) outcome {
			ps, base, asm := core.PlanBroadcast(g, l, 0, "m")
			base.MaxRounds = 4 * g.N()
			base.Faults = faults.DropFunc(func(node, round int) bool {
				return node == e.node && round == e.round
			})
			return outcome{survived: asm(radio.Run(g, ps, base)).AllInformed, wasStay: e.round%2 == 0}
		})
		survived, fatalMu, fatalStay := 0, 0, 0
		for _, r := range results {
			switch {
			case r.survived:
				survived++
			case r.wasStay:
				fatalStay++
			default:
				fatalMu++
			}
		}
		t.AddRow(tc.name, g.N(), len(events), survived,
			float64(100*survived)/float64(len(events)), fatalMu, fatalStay)
	}
	if len(t.Rows) == 0 {
		return nil, fmt.Errorf("fault experiment produced no rows")
	}
	return []*Table{t}, nil
}
