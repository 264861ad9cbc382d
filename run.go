package radiobcast

import (
	"context"
	"fmt"
	"slices"

	"radiobcast/internal/core"
	"radiobcast/internal/radio"
)

// LabelNetwork computes the named scheme's labeling of the network for
// its anchor (Scheme.Anchor) — the paper's one-time "central monitor"
// step. The labeling can then serve any number of RunLabeled broadcasts.
func LabelNetwork(net *Network, scheme string, opts ...Option) (*Labeling, error) {
	return LabelNetworkCtx(context.Background(), net, scheme, opts...)
}

// LabelNetworkCtx is LabelNetwork with cancellation: a ctx done before
// labeling starts returns ctx.Err(). The searching schemes (gjp, onebit)
// also check ctx between simulations and candidate evaluations, and stop
// with an error that errors.Is ctx.Err(); the other schemes' labelings are
// not searches and run to completion once started.
func LabelNetworkCtx(ctx context.Context, net *Network, scheme string, opts ...Option) (*Labeling, error) {
	s, cfg, source, err := prepare(ctx, net, scheme, opts)
	if err != nil {
		return nil, err
	}
	return s.Label(net.Graph, s.Anchor(source, cfg.Coordinator), cfg)
}

// Run labels the network with the named scheme and executes one broadcast:
//
//	out, err := radiobcast.Run(net, "barb", radiobcast.WithMessage("µ"))
//
// A run whose broadcast does not complete is NOT an error — inspect
// out.AllInformed or call Verify(out), which checks the scheme's full
// guarantees. Errors mean the setup was impossible (unknown scheme, no
// labeling exists, …); match them with errors.Is against ErrUnknownScheme,
// ErrNilNetwork, ErrNodeOutOfRange.
func Run(net *Network, scheme string, opts ...Option) (*Outcome, error) {
	return RunCtx(context.Background(), net, scheme, opts...)
}

// RunCtx is Run with cancellation: the engine checks ctx between rounds,
// so a hung or oversized job stops within one round of cancellation. A
// cancelled run returns the partial Outcome observed so far TOGETHER with
// ctx.Err() — callers that only check the error lose nothing, callers
// serving deadlines can still report the prefix. The Outcome's
// Result.Interrupted is true in that case.
func RunCtx(ctx context.Context, net *Network, scheme string, opts ...Option) (*Outcome, error) {
	s, cfg, source, err := prepare(ctx, net, scheme, opts)
	if err != nil {
		return nil, err
	}
	l, err := s.Label(net.Graph, s.Anchor(source, cfg.Coordinator), cfg)
	if err != nil {
		return nil, err
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	return finish(s, l, source, cfg)
}

// RunLabeled executes one broadcast over a previously computed labeling.
// The source defaults to the labeling's Source, its anchor. Schemes whose
// anchor is not the source ("barb", "roundrobin", "colorrobin",
// "flooding") accept any WithSource override.
func RunLabeled(l *Labeling, opts ...Option) (*Outcome, error) {
	return RunLabeledCtx(context.Background(), l, opts...)
}

// RunLabeledCtx is RunLabeled with cancellation (see RunCtx for the
// partial-result contract).
func RunLabeledCtx(ctx context.Context, l *Labeling, opts ...Option) (*Outcome, error) {
	s, cfg, source, err := prepareLabeled(ctx, l, opts)
	if err != nil {
		return nil, err
	}
	return finish(s, l, source, cfg)
}

// Verify checks an outcome against the guarantees of the scheme that
// produced it (the paper's theorems for the λ family, collision-freeness
// for the slotted baselines, completion for the flooding family).
func Verify(out *Outcome) error {
	s, ok := Lookup(out.Scheme)
	if !ok {
		return unknownScheme(out.Scheme)
	}
	return s.Verify(out)
}

// verifyComplete is the guard every shipped Verify starts with: the
// outcome carries its Result and Labeling, one informed round per node
// whose largest is its CompletionRound, and reports every node informed.
func verifyComplete(out *Outcome) error {
	switch {
	case out.Result == nil || out.Labeling == nil:
		return fmt.Errorf("radiobcast: %s outcome lacks its Result or Labeling", out.Scheme)
	case len(out.InformedRound) != out.Result.N():
		return fmt.Errorf("radiobcast: %s outcome has %d informed rounds for %d nodes", out.Scheme, len(out.InformedRound), out.Result.N())
	case len(out.InformedRound) > 0 && out.CompletionRound != slices.Max(out.InformedRound):
		return fmt.Errorf("radiobcast: %s outcome reports completion round %d, its informed rounds end in %d",
			out.Scheme, out.CompletionRound, slices.Max(out.InformedRound))
	case !out.AllInformed:
		return fmt.Errorf("radiobcast: %s broadcast incomplete after %d rounds", out.Scheme, out.Result.Rounds)
	}
	return nil
}

// Annotate renders the outcome's per-node transmit/receive history in the
// paper's Figure 1 annotation format (label, {transmit rounds}, (receive
// rounds)).
func Annotate(out *Outcome) string {
	var labels []string
	if out.Labeling != nil && out.Labeling.Labels != nil {
		labels = out.Labeling.Strings()
	} else {
		labels = make([]string, out.Graph.N())
	}
	return radio.Annotations(out.Result, labels)
}

func resolve(net *Network, scheme string, opts []Option) (Scheme, *Config, error) {
	if net == nil || net.Graph == nil {
		return nil, nil, nilNetwork()
	}
	s, ok := Lookup(scheme)
	if !ok {
		return nil, nil, unknownScheme(scheme)
	}
	cfg := newConfig(opts)
	if !cfg.coordinatorSet {
		cfg.Coordinator = net.Coordinator
	}
	if err := checkNode(net.Graph, cfg.sourceOr(net.Source), "source"); err != nil {
		return nil, nil, err
	}
	if err := checkNode(net.Graph, cfg.Coordinator, "coordinator"); err != nil {
		return nil, nil, err
	}
	return s, cfg, nil
}

// prepare runs the shared entry prologue: resolve network and scheme,
// install the context, honour a pre-existing cancellation, and settle the
// source. Both the package-level and the Session entry points sit on it.
func prepare(ctx context.Context, net *Network, scheme string, opts []Option) (Scheme, *Config, int, error) {
	s, cfg, err := resolve(net, scheme, opts)
	if err != nil {
		return nil, nil, 0, err
	}
	cfg.ctx = ctx
	if err := ctxErr(ctx); err != nil {
		return nil, nil, 0, err
	}
	if err := cfg.materializeFaults(net.Graph); err != nil {
		return nil, nil, 0, err
	}
	return s, cfg, cfg.sourceOr(net.Source), nil
}

// prepareLabeled is prepare for the pre-labeled entry points.
func prepareLabeled(ctx context.Context, l *Labeling, opts []Option) (Scheme, *Config, int, error) {
	s, cfg, err := resolveLabeled(l, opts)
	if err != nil {
		return nil, nil, 0, err
	}
	cfg.ctx = ctx
	if err := ctxErr(ctx); err != nil {
		return nil, nil, 0, err
	}
	source := cfg.sourceOr(l.Source)
	if err := checkNode(l.Graph, source, "source"); err != nil {
		return nil, nil, 0, err
	}
	if err := cfg.materializeFaults(l.Graph); err != nil {
		return nil, nil, 0, err
	}
	return s, cfg, source, nil
}

// materializeFaults turns the Config's declarative fault spec into a model
// instance bound to the run's graph. It runs during preparation so an
// unusable spec is an error before anything executes, and builds a fresh
// instance per run — models are stateful and must not be shared across
// concurrent runs. On the clean path it leaves faultModel nil, so
// fault-free runs pay nothing.
func (c *Config) materializeFaults(g *Graph) error {
	if c.Fault == nil {
		return nil
	}
	var err error
	c.faultModel, err = c.Fault.materialize(g)
	return err
}

// resolveLabeled validates a caller-supplied labeling before running on
// it; hand-assembled or wire-decoded labelings reach the schemes only
// through here, so the checks are deliberately defensive.
func resolveLabeled(l *Labeling, opts []Option) (Scheme, *Config, error) {
	if l == nil {
		return nil, nil, labelingMismatch("nil labeling")
	}
	if l.Graph == nil {
		return nil, nil, labelingMismatch("labeling for scheme %q has no graph", l.Scheme)
	}
	if l.Labels == nil && l.Schedule == nil {
		return nil, nil, labelingMismatch("labeling for scheme %q carries neither labels nor a schedule", l.Scheme)
	}
	if l.Labels != nil && len(l.Labels) != l.Graph.N() {
		return nil, nil, labelingMismatch("%d labels for %d nodes", len(l.Labels), l.Graph.N())
	}
	s, ok := Lookup(l.Scheme)
	if !ok {
		return nil, nil, unknownScheme(l.Scheme)
	}
	return s, newConfig(opts), nil
}

func checkNode(g *Graph, v int, role string) error {
	if v < 0 || v >= g.N() {
		return &NodeOutOfRangeError{Role: role, Node: v, N: g.N()}
	}
	return nil
}

// ctxErr reports a done context (nil-safe: a nil ctx never cancels).
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

func (c *Config) sourceOr(fallback int) int {
	if c.source >= 0 {
		return c.source
	}
	return fallback
}

// finish runs the scheme's plan on the engine and builds the outcome: it
// fills the fields common to all schemes, who was informed included, so
// plans only assemble what is specific to them. It is the facade's one
// call into the engine, and its one reading of who a run informed. When
// the run was cut short by the Config's context, the partial outcome is
// returned together with the ctx error.
func finish(s Scheme, l *Labeling, source int, cfg *Config) (*Outcome, error) {
	p, err := s.Plan(l, source, cfg.Mu)
	if err != nil {
		return nil, err
	}
	if len(p.Protocols) != l.Graph.N() {
		// Facade validation leaves one cross case: a labeling without labels
		// (a schedule-only one) under a label-driven scheme plans none.
		return nil, labelingMismatch("scheme %q planned %d protocols for %d nodes", s.Name(), len(p.Protocols), l.Graph.N())
	}
	if p.MaxRounds <= 0 {
		return nil, fmt.Errorf("radiobcast: scheme %s planned %d rounds", s.Name(), p.MaxRounds)
	}
	res := radio.Run(l.Graph, p.Protocols, cfg.radioOptions(p))
	out := &Outcome{Scheme: s.Name(), Graph: l.Graph, Source: source, Mu: cfg.Mu, Labeling: l, Result: res}
	out.InformedRound, out.AllInformed, out.CompletionRound = core.Informed(res, source, l.R())
	if p.Assemble != nil {
		p.Assemble(out)
	}
	out.Coverage, out.Degraded = degradation(out)
	if err := ctxErr(cfg.ctx); err != nil {
		return out, err
	}
	return out, nil
}
