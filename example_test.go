package radiobcast_test

import (
	"context"
	"fmt"

	"radiobcast"
)

// ExampleRun labels a network with the paper's λ scheme and broadcasts
// once. Everything is deterministic — the labeling, the engine, and
// therefore the completion round.
func ExampleRun() {
	net, err := radiobcast.Family("path", 8)
	if err != nil {
		panic(err)
	}
	out, err := radiobcast.Run(net, "b", radiobcast.WithMessage("µ"))
	if err != nil {
		panic(err)
	}
	fmt.Println("all informed:", out.AllInformed)
	fmt.Println("completion round:", out.CompletionRound)
	fmt.Println("verified:", radiobcast.Verify(out) == nil)
	// Output:
	// all informed: true
	// completion round: 13
	// verified: true
}

// ExampleRunLabeled is the paper's label-once/run-many regime: one
// labeling, many broadcasts, each reusing the same engine buffers.
func ExampleRunLabeled() {
	net, err := radiobcast.Family("grid", 16)
	if err != nil {
		panic(err)
	}
	l, err := radiobcast.LabelNetwork(net, "b", radiobcast.WithMessage("µ"))
	if err != nil {
		panic(err)
	}
	sim := radiobcast.NewSim()
	for _, mu := range []string{"first", "second"} {
		out, err := radiobcast.RunLabeled(l, radiobcast.WithMessage(mu), radiobcast.WithSim(sim))
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s: coverage %.0f%% in %d rounds\n",
			out.Mu, 100*out.Coverage, out.CompletionRound)
	}
	// Output:
	// first: coverage 100% in 11 rounds
	// second: coverage 100% in 11 rounds
}

// ExampleSession_Sweep streams a small sweep through a Session: cells
// arrive in completion order, so the example re-sorts by Index to print
// the deterministic grid order.
func ExampleSession_Sweep() {
	sess := radiobcast.NewSession()
	defer sess.Close(context.Background())

	cells := make([]radiobcast.CellResult, 0, 4)
	for cell, err := range sess.Sweep(context.Background(), radiobcast.SweepSpec{
		Families: []string{"path"},
		Sizes:    []int{8},
		Schemes:  []string{"b", "back"},
		Repeats:  2,
		Mu:       "µ",
	}) {
		if err != nil {
			panic(err)
		}
		cells = append(cells, cell)
	}
	for i := range cells {
		for j := range cells {
			if cells[j].Index == i {
				c := cells[j]
				fmt.Printf("%s: round %d, verified %v\n",
					c.Cell, c.Outcome.CompletionRound, c.Verified)
			}
		}
	}
	// Output:
	// path/n=8/b/src=0: round 13, verified true
	// path/n=8/b/src=0/rep=1: round 13, verified true
	// path/n=8/back/src=0: round 13, verified true
	// path/n=8/back/src=0/rep=1: round 13, verified true
}
