package baseline

import (
	"radiobcast/internal/core"
	"radiobcast/internal/graph"
	"radiobcast/internal/radio"
)

// The tests run each baseline the way the facade does: label, build the
// protocols, and Observe them under the scheme's round bound.

func runRoundRobin(g *graph.Graph, source int, mu string) *Outcome {
	labels := RoundRobinLabels(g.N())
	ps := NewSlottedProtocols(labels, source, mu)
	return Observe(g, ps, source, radio.Options{MaxRounds: SlottedMaxRounds(g, source, core.MaxLen(labels))})
}

func runColorRobin(g *graph.Graph, source int, mu string) *Outcome {
	labels, _ := ColorRobinLabels(g)
	ps := NewSlottedProtocols(labels, source, mu)
	return Observe(g, ps, source, radio.Options{MaxRounds: SlottedMaxRounds(g, source, core.MaxLen(labels))})
}

func runCentralized(g *graph.Graph, source int, mu string) *Outcome {
	schedule := BuildSchedule(g, source)
	ps := ScheduledProtocols(g.N(), schedule, mu)
	return Observe(g, ps, source, radio.Options{MaxRounds: len(schedule) + 1})
}
