package radiobcast

import (
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
	return corePlan(ps, base, release, nil), nil
}

func (bScheme) Verify(out *Outcome) error {
	if err := verifyComplete(out); err != nil {
		return err
	}
	return core.VerifyBroadcast(out.Result, out.InformedRound, out.Labeling.Stages, out.Mu)
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
	return corePlan(ps, base, release, func(out *Outcome) {
		out.AckRound = out.Result.FirstReception(out.Source, radio.KindAck)
	}), nil
}

func (backScheme) Verify(out *Outcome) error {
	if err := verifyComplete(out); err != nil {
		return err
	}
	return core.VerifyAcknowledged(out.Result, out.InformedRound, out.AckRound, out.Labeling.Stages, out.Mu)
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
	return corePlan(ps, base, release, func(out *Outcome) {
		out.KnowsCompleteRound, out.T = core.ArbitraryState(ps)
	}), nil
}

func (barbScheme) Verify(out *Outcome) error {
	if err := verifyComplete(out); err != nil {
		return err
	}
	return core.VerifyArbitrary(out.Result, out.KnowsCompleteRound, out.Labeling.R(), out.Mu)
}

// corePlan carries a core plan's protocols and base options into a Plan
// whose Assemble runs assemble (if non-nil), which may read the
// protocols, and then releases their pooled slab: Assemble runs once per
// plan, after the run, so the slab is free for the next plan as soon as
// the outcome is built.
func corePlan(ps []Protocol, base radio.Options, release func(), assemble func(*Outcome)) Plan {
	return Plan{
		Protocols: ps, MaxRounds: base.MaxRounds,
		StopAfterSilent: base.StopAfterSilent, Stop: base.Stop,
		Assemble: func(out *Outcome) {
			if assemble != nil {
				assemble(out)
			}
			release()
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
