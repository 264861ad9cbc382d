package core

import (
	"radiobcast/internal/graph"
	"radiobcast/internal/radio"
)

// The tests run each task the way the facade does: plan → radio.Run →
// assemble → release, on the scheme's base options.

func runBroadcast(g *graph.Graph, source int, mu string, opt BuildOptions) (*BroadcastOutcome, error) {
	l, err := Lambda(g, source, opt)
	if err != nil {
		return nil, err
	}
	return runBroadcastLabeled(g, l, source, mu), nil
}

func runBroadcastLabeled(g *graph.Graph, l *Labeling, source int, mu string) *BroadcastOutcome {
	ps, base, release := PlanBroadcast(g, l.Labels, source, mu)
	defer release()
	return AssembleBroadcast(radio.Run(g, ps, base), l.Stages, source)
}

func runAcknowledged(g *graph.Graph, source int, mu string, opt BuildOptions) (*AckOutcome, error) {
	l, err := LambdaAck(g, source, opt)
	if err != nil {
		return nil, err
	}
	return runAcknowledgedLabeled(g, l, source, mu), nil
}

func runAcknowledgedLabeled(g *graph.Graph, l *Labeling, source int, mu string) *AckOutcome {
	ps, base, release := PlanAcknowledged(g, l.Labels, source, mu)
	defer release()
	return AssembleAcknowledged(radio.Run(g, ps, base), l.Stages, source)
}

func runArbitrary(g *graph.Graph, r, source int, mu string, opt BuildOptions) (*ArbOutcome, error) {
	l, err := LambdaArb(g, r, opt)
	if err != nil {
		return nil, err
	}
	return runArbitraryLabeled(g, l, source, mu)
}

func runArbitraryLabeled(g *graph.Graph, l *Labeling, source int, mu string) (*ArbOutcome, error) {
	ps, base, release, err := PlanArbitrary(g, l.Labels, source, mu)
	if err != nil {
		return nil, err
	}
	defer release()
	return AssembleArbitrary(radio.Run(g, ps, base), ps, source), nil
}
