package baseline

import (
	"radiobcast/internal/core"
	"radiobcast/internal/graph"
	"radiobcast/internal/radio"
)

// The tests run each baseline the way the facade does: label, build the
// protocols, and run them observed under the scheme's round bound.

func runObserved(g *graph.Graph, ps []radio.Protocol, source, maxRounds int) *Outcome {
	obs, stop := Observe(ps, source)
	return Assemble(radio.Run(g, obs, radio.Options{MaxRounds: maxRounds, Stop: stop}), obs, source)
}

func runRoundRobin(g *graph.Graph, source int, mu string) *Outcome {
	labels := RoundRobinLabels(g.N())
	ps := NewSlottedProtocols(labels, source, mu)
	return runObserved(g, ps, source, SlottedMaxRounds(g, source, core.MaxLen(labels)))
}

func runColorRobin(g *graph.Graph, source int, mu string) *Outcome {
	labels, _ := ColorRobinLabels(g)
	ps := NewSlottedProtocols(labels, source, mu)
	return runObserved(g, ps, source, SlottedMaxRounds(g, source, core.MaxLen(labels)))
}

func runCentralized(g *graph.Graph, source int, mu string) *Outcome {
	schedule := BuildSchedule(g, source)
	ps := ScheduledProtocols(g.N(), schedule, mu)
	return runObserved(g, ps, source, len(schedule)+1)
}
