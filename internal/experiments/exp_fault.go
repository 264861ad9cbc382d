package experiments

import (
	"fmt"

	"radiobcast"
	"radiobcast/internal/graph"
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
		l, err := radiobcast.LabelNetwork(radiobcast.NewNetwork(g), "b")
		if err != nil {
			return nil, err
		}
		nominal, err := radiobcast.RunLabeled(l, radiobcast.WithMessage("m"))
		if err != nil {
			return nil, err
		}
		// Enumerate all (node, round) transmission events.
		type event struct{ node, round int }
		var events []event
		for v := range nominal.Result.N() {
			for _, r := range nominal.Result.Transmits(v) {
				events = append(events, event{v, r})
			}
		}
		type outcome struct {
			survived bool
			wasStay  bool
			err      error
		}
		// An oblivious jammer with no budget, restricted to one node and a
		// one-round window, jams exactly that node's transmission in that
		// round.
		results := sweep.Map(events, cfg.Workers, func(e event) outcome {
			out, err := radiobcast.RunLabeled(l,
				radiobcast.WithMessage("m"),
				radiobcast.WithMaxRounds(4*g.N()),
				radiobcast.WithFaultSpec(radiobcast.FaultSpec{
					Model: radiobcast.FaultModelJam, Nodes: []int{e.node}, From: e.round, To: e.round,
				}))
			if err != nil {
				return outcome{err: err}
			}
			return outcome{survived: out.AllInformed, wasStay: e.round%2 == 0}
		})
		survived, fatalMu, fatalStay := 0, 0, 0
		for _, r := range results {
			switch {
			case r.err != nil:
				return nil, r.err
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
