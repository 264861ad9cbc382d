package radiobcast

import (
	"errors"
	"fmt"

	"radiobcast/internal/gjp"
)

func init() {
	Register(gjpScheme{})
}

// gjpScheme is a bounded 1-bit echo search adapted from
// Gańczorz–Jurdziński–Pelc (arXiv:2410.07382); it takes only that
// paper's 1-bit idea and claims none of its guarantees. The protocol is
// algorithm B over the labels 10 and 01: a node's bit b becomes x1 = b,
// x2 = ¬b, so a newly informed bit-1 node forwards µ and a bit-0 node
// answers with "stay", which makes a transmitter that hears it alone
// retransmit. gjp.Build picks the bits by a bounded backtracking search
// over an exact stage simulation and verifies every labeling on the
// engine. Label fails with ErrNoLabeling where no 1-bit labeling exists
// (figure1) and where the search finds none within its budget (README's
// scheme table lists where a probe met that). Like onebit, the scheme is
// not universal.
type gjpScheme struct{}

func (gjpScheme) Name() string { return "gjp" }
func (gjpScheme) Describe() string {
	return "bounded 1-bit echo search adapted from Gańczorz–Jurdziński–Pelc: algorithm B over labels 10/01 (not universal)"
}

func (gjpScheme) Anchor(source, _ int) int { return source }

func (gjpScheme) Label(g *Graph, source int, cfg *Config) (*Labeling, error) {
	budget := gjp.DefaultBudget
	if cfg.Quick {
		budget = gjp.QuickBudget
	}
	labels, err := gjp.Build(cfg.context(), g, source, budget)
	if errors.Is(err, gjp.ErrNoLabeling) {
		return nil, fmt.Errorf("radiobcast: %w: %w", ErrNoLabeling, err)
	}
	if err != nil {
		return nil, fmt.Errorf("radiobcast: %w", err)
	}
	return &Labeling{
		Scheme: "gjp", Graph: g, Source: source,
		Labels: labels,
	}, nil
}

func (gjpScheme) Plan(l *Labeling, source int, mu string) (Plan, error) {
	ps, base, release := gjp.Plan(l.Graph, l.Labels, source, mu)
	return corePlan(ps, base, release, nil), nil
}

func (gjpScheme) Verify(out *Outcome) error {
	if err := verifyComplete(out); err != nil {
		return err
	}
	if bits := out.Labeling.Bits(); bits > 1 {
		return fmt.Errorf("radiobcast: gjp labeling uses %d bits", bits)
	}
	return nil
}
