package baseline

import (
	"radiobcast/internal/core"
	"radiobcast/internal/graph"
	"radiobcast/internal/radio"
)

// The tests run each baseline the way the facade does: label, build the
// protocols, run them under the scheme's bounds and read the outcome
// from the Result.

func runSlotted(g *graph.Graph, labels []core.Label, source int, mu string) *Outcome {
	ps, stop := NewSlottedProtocols(labels, source, mu)
	opt := radio.Options{MaxRounds: SlottedMaxRounds(g, source, core.MaxLen(labels)), Stop: stop}
	return Assemble(radio.Run(g, ps, opt), source)
}

func runRoundRobin(g *graph.Graph, source int, mu string) *Outcome {
	return runSlotted(g, RoundRobinLabels(g.N()), source, mu)
}

func runColorRobin(g *graph.Graph, source int, mu string) *Outcome {
	labels, _ := ColorRobinLabels(g)
	return runSlotted(g, labels, source, mu)
}

func runCentralized(g *graph.Graph, source int, mu string) *Outcome {
	schedule := BuildSchedule(g, source)
	ps := ScheduledProtocols(g.N(), schedule, mu)
	return Assemble(radio.Run(g, ps, radio.Options{MaxRounds: len(schedule) + 1}), source)
}
