// Figure 1: reproduce the paper's example execution of algorithm B on the
// reconstructed 13-node graph, rendering the per-node annotations in the
// figure's format ({transmit rounds} and (receive rounds)).
//
//	go run ./examples/figure1
package main

import (
	"fmt"
	"log"

	"radiobcast"
	"radiobcast/internal/graph"
)

func main() {
	out, err := radiobcast.Run(radiobcast.Figure1(), "b", radiobcast.WithMessage("µ"))
	if err != nil {
		log.Fatal(err)
	}
	if err := radiobcast.Verify(out); err != nil {
		log.Fatal(err)
	}

	fmt.Println("Figure 1 reconstruction — execution of algorithm B")
	fmt.Println("(odd rounds carry µ from DOM_i, even rounds carry \"stay\" from NEW_i)")
	fmt.Println()
	fmt.Print(out.Result.Trace().String())
	fmt.Println()
	fmt.Println("per-node annotations in the figure's format:")
	fmt.Print(radiobcast.Annotate(out))
	fmt.Println()
	fmt.Printf("stages ℓ = %d; broadcast completed in round %d = 2ℓ−3\n",
		out.Labeling.Stages.L, out.CompletionRound)
	fmt.Println()
	fmt.Println("golden comparison against the paper's printed transmit sets:")
	allMatch := true
	for v := range graph.Figure1Transmits {
		got := fmt.Sprint(out.Result.Transmits(v))
		want := fmt.Sprint(graph.Figure1Transmits[v])
		mark := "ok"
		if got != want {
			mark = "MISMATCH"
			allMatch = false
		}
		fmt.Printf("  node %2d: got %-12s want %-12s %s\n", v, got, want, mark)
	}
	if !allMatch {
		log.Fatal("the run's transmit schedules differ from the figure")
	}
	fmt.Println("all transmit schedules match the figure.")
}
