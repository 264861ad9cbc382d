package radiobcast

import (
	"context"

	"radiobcast/internal/faults"
	"radiobcast/internal/graph"
	"radiobcast/internal/radio"
)

// Config collects every knob a run can take. It is built from functional
// Options by Run, Label and RunLabeled; schemes receive the resolved
// Config and pick out what they understand.
type Config struct {
	// Mu is the source message µ (default "µ").
	Mu string
	// MaxRounds overrides the scheme's default round bound when > 0.
	MaxRounds int
	// Fault, when non-nil, injects faults through a declarative model
	// description (jamming, crash–recovery, churn, duty-cycling, or a
	// composition). Set by WithFaultSpec / FaultRate; validated and
	// materialized when the run is prepared.
	Fault *FaultSpec
	// Quick reduces search effort for schemes that search for labelings:
	// onebit's hill-climb tries and gjp's candidate budget.
	Quick bool
	// Coordinator is the coordinator node r of λarb (scheme "barb").
	// Unless WithCoordinator was given, Run substitutes the Network's
	// coordinator.
	Coordinator int
	// Sim, when non-nil, is the reusable engine the run executes on:
	// passing the same Sim to every run of a label-once/run-many loop
	// amortises all per-run engine buffers (see NewSim).
	Sim *Sim

	// ctx is the run's context, set by the *Ctx entry points and checked
	// by the engine between rounds; nil means "never cancelled".
	ctx context.Context
	// source is the WithSource override; -1 means "use the Network's /
	// Labeling's source".
	source int
	// coordinatorSet records that WithCoordinator was given explicitly
	// (node 0 is a valid coordinator, so the value alone cannot tell).
	coordinatorSet bool
	// faultModel is Fault materialized against the run's graph (set during
	// preparation, consumed by radioOptions).
	faultModel faults.Model
	// engine replaces the engine for the run (radio.Options.Engine). Only
	// the tests set it, to run schemes on the reference engine.
	engine func(*graph.Graph, []radio.Protocol, radio.Options) *radio.Result
}

// Option is a functional option for Run, Label and RunLabeled.
type Option func(*Config)

// WithMessage sets the source message µ.
func WithMessage(mu string) Option { return func(c *Config) { c.Mu = mu } }

// WithWorkers has no effect; it is kept so existing callers compile.
//
// Deprecated: a run always executes on the one sequential engine.
// Parallelism comes from running many runs at once on Session.Sweep's
// worker pool.
func WithWorkers(int) Option { return func(*Config) {} }

// WithMaxRounds overrides the scheme's default round bound.
func WithMaxRounds(n int) Option { return func(c *Config) { c.MaxRounds = n } }

// WithQuick reduces search effort for labeling schemes that search
// (trading completeness for speed).
func WithQuick() Option { return func(c *Config) { c.Quick = true } }

// WithSource overrides the source node for this run (useful with
// RunLabeled: λarb labelings are source-independent).
func WithSource(v int) Option { return func(c *Config) { c.source = v } }

// WithCoordinator sets the coordinator node r used by scheme "barb".
func WithCoordinator(r int) Option {
	return func(c *Config) {
		c.Coordinator = r
		c.coordinatorSet = true
	}
}

// WithSim runs on a caller-owned reusable engine. In a label-once/run-many
// loop, passing the same Sim to every RunLabeled amortises all per-run
// engine buffers, so steady-state runs allocate only the protocols and the
// Result:
//
//	sim := radiobcast.NewSim()
//	for i := 0; i < runs; i++ {
//		out, err := radiobcast.RunLabeled(l, radiobcast.WithSim(sim))
//		...
//	}
//
// A Sim must not be used by two runs concurrently.
func WithSim(s *Sim) Option { return func(c *Config) { c.Sim = s } }

// context is the run's context for work that needs a non-nil one (the
// labeling searches); a Config without one never cancels.
func (c *Config) context() context.Context {
	if c.ctx == nil {
		return context.Background()
	}
	return c.ctx
}

func newConfig(opts []Option) *Config {
	c := &Config{Mu: "µ", source: -1}
	for _, o := range opts {
		o(c)
	}
	return c
}

// radioOptions is the engine options of a run of plan p: its bounds, with
// the run's context, round-bound override, fault model, Sim and test
// engine set on them.
func (c *Config) radioOptions(p Plan) radio.Options {
	opt := radio.Options{
		MaxRounds: p.MaxRounds, StopAfterSilent: p.StopAfterSilent, Stop: p.Stop,
		Ctx: c.ctx, Faults: c.faultModel, Sim: c.Sim, Engine: c.engine,
	}
	if c.MaxRounds > 0 {
		opt.MaxRounds = c.MaxRounds
	}
	return opt
}
