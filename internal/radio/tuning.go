package radio

import (
	"context"

	"radiobcast/internal/faults"
	"radiobcast/internal/graph"
)

// Tuning carries the caller-adjustable engine knobs that are orthogonal to
// a runner's scheme-specific Options (round bounds, stop predicates). The
// public facade builds one Tuning from its functional options and every
// runner layers it onto its base Options with Options.With, so tracing,
// fault injection and buffer reuse reach all schemes through one path.
type Tuning struct {
	// Ctx, when non-nil, makes the run cancellable between rounds (see
	// Options.Ctx).
	Ctx context.Context
	// MaxRounds overrides the runner's default round bound when > 0.
	MaxRounds int
	// Trace, when non-nil, records the run round by round.
	Trace *Trace
	// Faults, when non-nil, injects faults through a model (see
	// Options.Faults).
	Faults faults.Model
	// Sim, when non-nil, is the reusable engine buffers to run on (see
	// Options.Sim).
	Sim *Sim
	// Engine, when non-nil, replaces the engine for the run (see
	// Options.Engine; a test seam).
	Engine func(g *graph.Graph, protos []Protocol, opt Options) *Result
}

// With returns o with the non-zero fields of t layered on top. A nil t
// returns o unchanged, so runners can pass their tuning through untouched.
func (o Options) With(t *Tuning) Options {
	if t == nil {
		return o
	}
	if t.Ctx != nil {
		o.Ctx = t.Ctx
	}
	if t.MaxRounds > 0 {
		o.MaxRounds = t.MaxRounds
	}
	if t.Trace != nil {
		o.Trace = t.Trace
	}
	if t.Faults != nil {
		o.Faults = t.Faults
	}
	if t.Sim != nil {
		o.Sim = t.Sim
	}
	if t.Engine != nil {
		o.Engine = t.Engine
	}
	return o
}
