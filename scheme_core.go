package radiobcast

import (
	"fmt"

	"radiobcast/internal/core"
	"radiobcast/internal/radio"
)

func init() {
	Register(bScheme{})
	Register(backScheme{})
	Register(barbScheme{})
}

// bScheme adapts the paper's 2-bit scheme λ with universal algorithm B
// (§2, Theorem 2.9).
type bScheme struct{}

func (bScheme) Name() string { return "b" }
func (bScheme) Describe() string {
	return "2-bit labeling λ + universal algorithm B (broadcast in ≤ 2n−3 rounds)"
}

func (bScheme) Anchor(source, _ int) int { return source }

func (bScheme) Label(g *Graph, source int, _ *Config) (*Labeling, error) {
	l, err := core.Lambda(g, source, core.BuildOptions{})
	if err != nil {
		return nil, err
	}
	return wrapCore("b", g, source, l), nil
}

func (bScheme) Plan(l *Labeling, source int, mu string) (Plan, error) {
	ps, base, release := core.PlanBroadcast(l.Graph, l.Labels, source, mu)
	return corePlan(ps, base, release, func(res *Result) *Outcome {
		out := core.AssembleBroadcast(res, l.Stages, source)
		return &Outcome{
			InformedRound:   out.InformedRound,
			AllInformed:     out.AllInformed,
			CompletionRound: out.CompletionRound,
			inner:           out,
		}
	}), nil
}

func (bScheme) Verify(out *Outcome) error {
	b, ok := out.inner.(*core.BroadcastOutcome)
	if !ok {
		return fmt.Errorf("radiobcast: outcome did not come from scheme b")
	}
	return core.VerifyBroadcast(b, out.Mu)
}

// backScheme adapts the 3-bit scheme λack with acknowledged broadcast
// Back (§3, Theorem 3.9).
type backScheme struct{}

func (backScheme) Name() string { return "back" }
func (backScheme) Describe() string {
	return "3-bit labeling λack + algorithm Back (broadcast with acknowledgement)"
}

func (backScheme) Anchor(source, _ int) int { return source }

func (backScheme) Label(g *Graph, source int, _ *Config) (*Labeling, error) {
	l, err := core.LambdaAck(g, source, core.BuildOptions{})
	if err != nil {
		return nil, err
	}
	return wrapCore("back", g, source, l), nil
}

func (backScheme) Plan(l *Labeling, source int, mu string) (Plan, error) {
	ps, base, release := core.PlanAcknowledged(l.Graph, l.Labels, source, mu)
	return corePlan(ps, base, release, func(res *Result) *Outcome {
		out := core.AssembleAcknowledged(res, l.Stages, source)
		return &Outcome{
			InformedRound:   out.InformedRound,
			AllInformed:     out.AllInformed,
			CompletionRound: out.CompletionRound,
			AckRound:        out.AckRound,
			inner:           out,
		}
	}), nil
}

func (backScheme) Verify(out *Outcome) error {
	a, ok := out.inner.(*core.AckOutcome)
	if !ok {
		return fmt.Errorf("radiobcast: outcome did not come from scheme back")
	}
	return core.VerifyAcknowledged(a, out.Mu)
}

// barbScheme adapts the 3-bit source-independent scheme λarb with the
// three-phase algorithm Barb (§4): labels depend only on the coordinator
// r, so one labeling serves broadcasts from any source.
type barbScheme struct{}

func (barbScheme) Name() string { return "barb" }
func (barbScheme) Describe() string {
	return "3-bit labeling λarb + algorithm Barb (any node may be the source)"
}

func (barbScheme) Anchor(_, r int) int { return r }

func (barbScheme) Label(g *Graph, r int, _ *Config) (*Labeling, error) {
	l, err := core.LambdaArb(g, r, core.BuildOptions{})
	if err != nil {
		return nil, err
	}
	return wrapCore("barb", g, r, l), nil
}

func (barbScheme) Plan(l *Labeling, source int, mu string) (Plan, error) {
	ps, base, release, err := core.PlanArbitrary(l.Graph, l.Labels, source, mu)
	if err != nil {
		return Plan{}, err
	}
	return corePlan(ps, base, release, func(res *Result) *Outcome {
		out := core.AssembleArbitrary(res, ps, source)
		return &Outcome{
			InformedRound:      out.InformedRound,
			AllInformed:        out.AllInformed,
			CompletionRound:    out.CompletionRound,
			KnowsCompleteRound: out.KnowsCompleteRound,
			TotalRounds:        out.TotalRounds,
			T:                  out.T,
			inner:              out,
		}
	}), nil
}

func (barbScheme) Verify(out *Outcome) error {
	a, ok := out.inner.(*core.ArbOutcome)
	if !ok {
		return fmt.Errorf("radiobcast: outcome did not come from scheme barb")
	}
	return core.VerifyArbitrary(out.Graph, a, out.Mu)
}

// corePlan carries a core plan's protocols and base options into a Plan
// whose Assemble releases the protocols' pooled slab once assemble has
// read the Result: Assemble runs once per plan, after the run, so the
// slab is free for the next plan as soon as the outcome is built.
func corePlan(ps []Protocol, base radio.Options, release func(), assemble func(*Result) *Outcome) Plan {
	return Plan{
		Protocols: ps, MaxRounds: base.MaxRounds,
		StopAfterSilent: base.StopAfterSilent, Stop: base.Stop,
		Assemble: func(res *Result) *Outcome {
			out := assemble(res)
			release()
			return out
		},
	}
}

// wrapCore lifts an internal λ-family labeling for anchor into the
// public shape. It keeps the labels and stages alone: StayPick is read
// only by core.VerifyLambda, which no facade path calls.
func wrapCore(scheme string, g *Graph, anchor int, l *core.Labeling) *Labeling {
	return &Labeling{
		Scheme: scheme,
		Graph:  g,
		Source: anchor,
		Labels: l.Labels,
		Stages: l.Stages,
	}
}
