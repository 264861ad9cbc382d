package radiobcast

import (
	"fmt"

	"radiobcast/internal/baseline"
	"radiobcast/internal/core"
)

func init() {
	Register(roundRobinScheme{})
	Register(colorRobinScheme{})
	Register(centralizedScheme{})
	Register(floodingScheme{})
}

// slottedScheme is the plan half shared by the two slotted baselines:
// both run baseline.Slotted over their labels, which depend on no node,
// and must never collide.
type slottedScheme struct{}

func (slottedScheme) Anchor(int, int) int { return 0 }

func (slottedScheme) Plan(l *Labeling, source int, mu string) (Plan, error) {
	ps, stop := baseline.NewSlottedProtocols(l.Labels, source, mu)
	maxRounds := baseline.SlottedMaxRounds(l.Graph, source, l.Bits())
	return Plan{Protocols: ps, MaxRounds: maxRounds, Stop: stop}, nil
}

func (slottedScheme) Verify(out *Outcome) error {
	if err := verifyComplete(out); err != nil {
		return err
	}
	for v, c := range out.Result.Collisions {
		if c > 0 {
			return fmt.Errorf("radiobcast: %s is slotted but node %d observed %d collision rounds", out.Scheme, v, c)
		}
	}
	return nil
}

// roundRobinScheme adapts the classical O(log n)-bit distinct-identifier
// baseline: node v transmits µ exactly in slot v of a 2^⌈log₂ n⌉ period.
type roundRobinScheme struct{ slottedScheme }

func (roundRobinScheme) Name() string { return "roundrobin" }
func (roundRobinScheme) Describe() string {
	return "O(log n)-bit distinct identifiers, one transmission slot per node"
}

func (roundRobinScheme) Label(g *Graph, anchor int, _ *Config) (*Labeling, error) {
	return &Labeling{
		Scheme: "roundrobin", Graph: g, Source: anchor,
		Labels: baseline.RoundRobinLabels(g.N()),
	}, nil
}

// colorRobinScheme adapts the O(log Δ)-bit distance-2-colouring baseline:
// informed nodes transmit in the slot of their colour.
type colorRobinScheme struct{ slottedScheme }

func (colorRobinScheme) Name() string { return "colorrobin" }
func (colorRobinScheme) Describe() string {
	return "O(log Δ)-bit distance-2 colouring, one transmission slot per colour"
}

func (colorRobinScheme) Label(g *Graph, anchor int, _ *Config) (*Labeling, error) {
	labels, _ := baseline.ColorRobinLabels(g)
	return &Labeling{
		Scheme: "colorrobin", Graph: g, Source: anchor,
		Labels: labels,
	}, nil
}

// centralizedScheme adapts the known-topology reference point: a greedy
// controller precomputes a collision-free transmitter schedule; nodes get
// scripts, not labels.
type centralizedScheme struct{}

func (centralizedScheme) Name() string { return "centralized" }
func (centralizedScheme) Describe() string {
	return "centralized greedy schedule over full topology knowledge (no labels)"
}

func (centralizedScheme) Anchor(source, _ int) int { return source }

func (centralizedScheme) Label(g *Graph, source int, _ *Config) (*Labeling, error) {
	return &Labeling{
		Scheme: "centralized", Graph: g, Source: source,
		Schedule: baseline.BuildSchedule(g, source),
	}, nil
}

func (s centralizedScheme) Plan(l *Labeling, source int, mu string) (Plan, error) {
	var assemble func(*Outcome)
	if source != l.Source || l.Schedule == nil {
		// The schedule is source-specific (and its Label cannot fail); the
		// outcome carries the one the run followed.
		l, _ = s.Label(l.Graph, source, nil)
		assemble = func(out *Outcome) { out.Labeling = l }
	}
	// No stop predicate: the scripts fall silent after the schedule, whose
	// last round is the run's second-to-last.
	ps := baseline.ScheduledProtocols(l.Graph.N(), l.Schedule, mu)
	return Plan{Protocols: ps, MaxRounds: len(l.Schedule) + 1, Assemble: assemble}, nil
}

func (centralizedScheme) Verify(out *Outcome) error {
	if err := verifyComplete(out); err != nil {
		return err
	}
	if want := len(out.Labeling.Schedule); out.CompletionRound > want {
		return fmt.Errorf("radiobcast: centralized run took %d rounds, schedule promises %d",
			out.CompletionRound, want)
	}
	return nil
}

// floodingScheme adapts plain one-bit delayed flooding with every node
// labeled 1 (forward once, one round after first reception). It is NOT
// universal — it collides on many topologies — and serves as the
// comparison point the verified one-bit schemes improve on.
type floodingScheme struct{}

func (floodingScheme) Name() string { return "flooding" }
func (floodingScheme) Describe() string {
	return "1-bit delayed flooding, all-1 labels (not universal; baseline for onebit)"
}

func (floodingScheme) Anchor(int, int) int { return 0 }

func (floodingScheme) Label(g *Graph, anchor int, _ *Config) (*Labeling, error) {
	labels := make([]Label, g.N())
	one := core.MakeLabel(true)
	for v := range labels {
		labels[v] = one
	}
	return &Labeling{
		Scheme: "flooding", Graph: g, Source: anchor,
		Labels: labels, Delays: baseline.DefaultDelays,
	}, nil
}

func (floodingScheme) Plan(l *Labeling, source int, mu string) (Plan, error) {
	ps, stop := baseline.NewFloodingProtocols(l.Labels, l.Delays, source, mu)
	maxRounds := baseline.FloodingMaxRounds(l.Graph.N())
	return Plan{Protocols: ps, MaxRounds: maxRounds, Stop: stop}, nil
}

func (floodingScheme) Verify(out *Outcome) error {
	return verifyComplete(out)
}
