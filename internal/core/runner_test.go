package core

import (
	"fmt"
	"slices"

	"radiobcast/internal/graph"
	"radiobcast/internal/radio"
)

// The tests run each task the way the facade does: plan → radio.Run →
// Informed → release, on the scheme's base options. An outcome keeps
// what a test reads of the run.
type outcome struct {
	Result          *radio.Result
	Stages          *Stages
	InformedRound   []int
	AllInformed     bool
	CompletionRound int
	AckRound        int // Back: the source's first ack reception
	// Barb: the coordinator, each node's knows-complete round, and T.
	R                  int
	KnowsCompleteRound []int
	T                  int
}

func newOutcome(res *radio.Result, st *Stages, source, coordinator int) *outcome {
	out := &outcome{Result: res, Stages: st, R: coordinator}
	out.InformedRound, out.AllInformed, out.CompletionRound = Informed(res, source, coordinator)
	return out
}

func (o *outcome) verifyBroadcast(mu string) error {
	return VerifyBroadcast(o.Result, o.InformedRound, o.Stages, mu)
}

func (o *outcome) verifyAcknowledged(mu string) error {
	return VerifyAcknowledged(o.Result, o.InformedRound, o.AckRound, o.Stages, mu)
}

// verifyArbitrary also requires every node informed, which
// VerifyArbitrary leaves to its caller.
func (o *outcome) verifyArbitrary(mu string) error {
	if !o.AllInformed {
		return fmt.Errorf("Barb incomplete: informed rounds %v", o.InformedRound)
	}
	return VerifyArbitrary(o.Result, o.KnowsCompleteRound, o.R, mu)
}

func runBroadcast(g *graph.Graph, source int, mu string, opt BuildOptions) (*outcome, error) {
	l, err := Lambda(g, source, opt)
	if err != nil {
		return nil, err
	}
	return runBroadcastLabeled(g, l, source, mu), nil
}

func runBroadcastLabeled(g *graph.Graph, l *Labeling, source int, mu string) *outcome {
	ps, base, release := PlanBroadcast(g, l.Labels, source, mu)
	defer release()
	return newOutcome(radio.Run(g, ps, base), l.Stages, source, -1)
}

func runAcknowledged(g *graph.Graph, source int, mu string, opt BuildOptions) (*outcome, error) {
	l, err := LambdaAck(g, source, opt)
	if err != nil {
		return nil, err
	}
	return runAcknowledgedLabeled(g, l, source, mu), nil
}

func runAcknowledgedLabeled(g *graph.Graph, l *Labeling, source int, mu string) *outcome {
	ps, base, release := PlanAcknowledged(g, l.Labels, source, mu)
	defer release()
	out := newOutcome(radio.Run(g, ps, base), l.Stages, source, -1)
	out.AckRound = out.Result.FirstReception(source, radio.KindAck)
	return out
}

func runArbitrary(g *graph.Graph, r, source int, mu string, opt BuildOptions) (*outcome, error) {
	l, err := LambdaArb(g, r, opt)
	if err != nil {
		return nil, err
	}
	return runArbitraryLabeled(g, l, source, mu)
}

func runArbitraryLabeled(g *graph.Graph, l *Labeling, source int, mu string) (*outcome, error) {
	ps, base, release, err := PlanArbitrary(g, l.Labels, source, mu)
	if err != nil {
		return nil, err
	}
	defer release()
	out := newOutcome(radio.Run(g, ps, base), l.Stages, source, slices.Index(l.Labels, CoordinatorLabel))
	out.KnowsCompleteRound, out.T = ArbitraryState(ps)
	return out, nil
}
