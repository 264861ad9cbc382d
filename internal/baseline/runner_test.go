package baseline

import (
	"radiobcast/internal/core"
	"radiobcast/internal/graph"
	"radiobcast/internal/radio"
)

// The tests run each baseline the way the facade does: label, build the
// protocols, run them under the scheme's bounds and read who was
// informed from the Result (core.Informed). An outcome keeps what a test
// reads of the run.
type outcome struct {
	Result          *radio.Result
	InformedRound   []int
	AllInformed     bool
	CompletionRound int
}

func run(g *graph.Graph, ps []radio.Protocol, opt radio.Options, source int) *outcome {
	out := &outcome{Result: radio.Run(g, ps, opt)}
	out.InformedRound, out.AllInformed, out.CompletionRound = core.Informed(out.Result, source, -1)
	return out
}

func runSlotted(g *graph.Graph, labels []core.Label, source int, mu string) *outcome {
	ps, stop := NewSlottedProtocols(labels, source, mu)
	return run(g, ps, radio.Options{MaxRounds: SlottedMaxRounds(g, source, core.MaxLen(labels)), Stop: stop}, source)
}

func runRoundRobin(g *graph.Graph, source int, mu string) *outcome {
	return runSlotted(g, RoundRobinLabels(g.N()), source, mu)
}

func runColorRobin(g *graph.Graph, source int, mu string) *outcome {
	labels, _ := ColorRobinLabels(g)
	return runSlotted(g, labels, source, mu)
}

func runCentralized(g *graph.Graph, source int, mu string) *outcome {
	schedule := BuildSchedule(g, source)
	return run(g, ScheduledProtocols(g.N(), schedule, mu), radio.Options{MaxRounds: len(schedule) + 1}, source)
}
