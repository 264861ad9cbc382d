package experiments

import (
	"fmt"

	"radiobcast"
	"radiobcast/internal/core"
	"radiobcast/internal/graph"
	"radiobcast/internal/sweep"
)

// familyCase is one cell of the family × size sweep.
type familyCase struct {
	Family string
	N      int
}

func familyGrid(cfg Config) []familyCase {
	var cases []familyCase
	for _, fam := range graph.FamilyNames() {
		for _, n := range cfg.Sizes() {
			cases = append(cases, familyCase{fam, n})
		}
	}
	return cases
}

// Theorem29Experiment sweeps algorithm B over every graph family and size,
// verifying completion within 2n−3 rounds and Lemma 2.8 round-exactness.
func Theorem29Experiment(cfg Config) ([]*Table, error) {
	t := &Table{
		ID:      "T29",
		Title:   "Broadcast time of algorithm B vs the 2n−3 bound (Theorem 2.9)",
		Caption: "completion = round of last first-reception; verified = Lemma 2.8 exactness + payloads.",
		Columns: []string{"family", "n", "ℓ", "completion", "2n−3", "within", "verified"},
	}
	type row struct {
		fam                     string
		n, l, completion, bound int
		within, verified        bool
		err                     error
	}
	rows := sweep.Map(familyGrid(cfg), cfg.Workers, func(c familyCase) row {
		g := graph.Families[c.Family](c.N)
		n := g.N()
		out, err := radiobcast.Run(radiobcast.NewNetwork(g), "b", radiobcast.WithMessage("m"))
		if err != nil {
			return row{fam: c.Family, n: n, err: err}
		}
		verified := radiobcast.Verify(out) == nil
		bound := 2*n - 3
		if n < 2 {
			bound = 0
		}
		return row{
			fam: c.Family, n: n, l: out.Labeling.Stages.L,
			completion: out.CompletionRound, bound: bound,
			within: out.CompletionRound <= bound || n < 2, verified: verified,
		}
	})
	for _, r := range rows {
		if r.err != nil {
			return nil, fmt.Errorf("%s n=%d: %w", r.fam, r.n, r.err)
		}
		if !r.within || !r.verified {
			return nil, fmt.Errorf("%s n=%d: bound/verification failed", r.fam, r.n)
		}
		t.AddRow(r.fam, r.n, r.l, r.completion, r.bound, boolMark(r.within), boolMark(r.verified))
	}
	return []*Table{t}, nil
}

// Lemma26Experiment machine-checks the §2.1 construction invariants
// (Facts 2.1–2.2, Lemmas 2.3–2.6, Corollary 2.7) across the sweep.
func Lemma26Experiment(cfg Config) ([]*Table, error) {
	t := &Table{
		ID:      "L26",
		Title:   "Stage construction invariants (ℓ ≤ n and §2.1 facts)",
		Caption: "invariants = CheckStageInvariants: Facts 2.1–2.2, Lemmas 2.3–2.5, Cor 2.7; λ-checks = VerifyLambda.",
		Columns: []string{"family", "n", "ℓ", "ℓ≤n", "invariants", "λ-checks"},
	}
	type row struct {
		fam           string
		n, l          int
		lOK, inv, lam bool
		err           error
	}
	rows := sweep.Map(familyGrid(cfg), cfg.Workers, func(c familyCase) row {
		g := graph.Families[c.Family](c.N)
		l, err := core.Lambda(g, 0, core.BuildOptions{})
		if err != nil {
			return row{fam: c.Family, n: g.N(), err: err}
		}
		return row{
			fam: c.Family, n: g.N(), l: l.Stages.L,
			lOK: l.Stages.L <= g.N(),
			inv: core.CheckStageInvariants(l.Stages) == nil,
			lam: core.VerifyLambda(l) == nil,
		}
	})
	for _, r := range rows {
		if r.err != nil {
			return nil, fmt.Errorf("%s n=%d: %w", r.fam, r.n, r.err)
		}
		if !r.lOK || !r.inv || !r.lam {
			return nil, fmt.Errorf("%s n=%d: invariant violation", r.fam, r.n)
		}
		t.AddRow(r.fam, r.n, r.l, boolMark(r.lOK), boolMark(r.inv), boolMark(r.lam))
	}
	return []*Table{t}, nil
}
