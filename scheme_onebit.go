package radiobcast

import (
	"fmt"

	"radiobcast/internal/baseline"
	"radiobcast/internal/onebit"
)

func init() {
	Register(onebitScheme{})
}

// onebitScheme adapts the verified single-bit schemes of §5: a machine-
// checked 1-bit labeling under the delayed-flooding protocol family. The
// paper gives no general construction, so labeling is a search — exhaustive
// over all 2^n labelings for small graphs, a seeded hill-climb otherwise —
// and every labeling returned has been verified to complete broadcast by
// exact simulation. Label fails with ErrNoLabeling when no labeling is
// found (one-bit broadcast is not universal). A labeling runs on
// flooding's plan.
type onebitScheme struct{ floodingScheme }

// onebitExhaustiveMax bounds the exhaustive 2^n search (beyond it the
// hill-climb takes over).
const onebitExhaustiveMax = 14

func (onebitScheme) Name() string { return "onebit" }
func (onebitScheme) Describe() string {
	return "verified 1-bit labeling (§5) under delayed flooding, found by search"
}

// Anchor overrides flooding's: a onebit labeling is searched per source.
func (onebitScheme) Anchor(source, _ int) int { return source }

func (onebitScheme) Label(g *Graph, source int, cfg *Config) (*Labeling, error) {
	tries := 4000
	if cfg.Quick {
		tries = 400
	}
	// The search runs the engine on a clone, so the slab form it caches
	// is not left on the labeled graph.
	search := g.Clone()
	for _, d := range []baseline.FloodingDelays{baseline.DefaultDelays, baseline.GridDelays} {
		var s *onebit.Scheme
		var err error
		if g.N() <= onebitExhaustiveMax {
			s, err = onebit.SearchExhaustive(cfg.context(), search, d, source)
		} else {
			s, err = onebit.SearchRandom(cfg.context(), search, d, source, tries, cfg.Seed)
		}
		if err != nil {
			return nil, err
		}
		if s != nil {
			return &Labeling{
				Scheme: "onebit", Graph: g, Source: source,
				Labels: s.Labels, Delays: s.Delays,
			}, nil
		}
	}
	return nil, fmt.Errorf("radiobcast: %w: no 1-bit labeling found for %v from source %d (one-bit broadcast is not universal)", ErrNoLabeling, g, source)
}

func (onebitScheme) Verify(out *Outcome) error {
	if err := verifyComplete(out); err != nil {
		return err
	}
	if bits := out.Labeling.Bits(); bits > 1 {
		return fmt.Errorf("radiobcast: onebit labeling uses %d bits", bits)
	}
	return nil
}
