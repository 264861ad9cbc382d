package radiobcast

import (
	"errors"
	"fmt"

	"radiobcast/internal/baseline"
	"radiobcast/internal/gjp"
	"radiobcast/internal/radio"
)

func init() {
	Register(gjpScheme{})
}

// gjpScheme adapts the optimal-length scheme of Gańczorz–Jurdziński–Pelc
// (arXiv:2410.07382), which closes the paper's open question on the
// shortest labels enabling deterministic radio broadcast. The adaptation
// keeps their 1-bit mechanism on this repo's engine: a newly informed
// bit-1 node forwards µ two rounds after first hearing it, a newly
// informed bit-0 node sends a constant-size "stay" echo one round after,
// and a transmitter hearing a collision-free echo retransmits µ — so the
// echo steers the wave through regions with no fresh forwarders. Labels
// are constructed by exact stage simulation with backtracking and every
// labeling is verified against the engine before being returned; Label
// fails with ErrNoLabeling when no 1-bit assignment sustains the wave
// (echo-controlled 1-bit broadcast, like onebit, is not universal).
type gjpScheme struct{}

func (gjpScheme) Name() string { return "gjp" }
func (gjpScheme) Describe() string {
	return "1-bit echo-controlled forwarding (Gańczorz–Jurdziński–Pelc optimal length), constructed by exact simulation"
}

func (gjpScheme) Label(g *Graph, source int, cfg *Config) (*Labeling, error) {
	budget := gjp.DefaultBudget
	if cfg.Quick {
		budget = gjp.QuickBudget
	}
	labels, err := gjp.Build(g, source, budget)
	if errors.Is(err, gjp.ErrNoLabeling) {
		return nil, fmt.Errorf("radiobcast: %w: %w", ErrNoLabeling, err)
	}
	if err != nil {
		return nil, fmt.Errorf("radiobcast: %w", err)
	}
	return &Labeling{
		Scheme: "gjp", Graph: g, Source: source,
		Labels: labels, Z: -1, R: -1,
	}, nil
}

func (gjpScheme) Protocols(l *Labeling, source int, mu string) ([]Protocol, error) {
	return gjp.NewProtocols(l.Labels, source, mu), nil
}

func (s gjpScheme) Run(l *Labeling, source int, cfg *Config) (*Outcome, error) {
	if err := l.checkLabels(); err != nil {
		return nil, err
	}
	ps, _ := s.Protocols(l, source, cfg.Mu)
	maxRounds := gjp.MaxRounds(l.Graph.N())
	out := baseline.Observe(l.Graph, ps, source, cfg.radioOptions(radio.Options{MaxRounds: maxRounds}))
	return baselineOutcome(out), nil
}

func (gjpScheme) Verify(out *Outcome) error {
	if err := verifyComplete(out, "gjp"); err != nil {
		return err
	}
	if bits := out.Labeling.Bits(); bits > 1 {
		return fmt.Errorf("radiobcast: gjp labeling uses %d bits", bits)
	}
	return nil
}
