package experiments

import (
	"fmt"

	"radiobcast"
	"radiobcast/internal/anonymity"
	"radiobcast/internal/core"
	"radiobcast/internal/graph"
	"radiobcast/internal/radio"
	"radiobcast/internal/sweep"
)

func gC4() *graph.Graph { return graph.Cycle(4) }

// ImpossibilityExperiment runs the four-cycle impossibility battery: a set
// of natural uniform protocols plus hundreds of pseudorandom deterministic
// programs; none may inform the antipodal node, while the labeled control
// (λ + B) must complete in 3 rounds.
func ImpossibilityExperiment(cfg Config) ([]*Table, error) {
	t := &Table{
		ID:    "IMP",
		Title: "Four-cycle impossibility without labels (§1.1)",
		Caption: "Every uniform deterministic protocol leaves the antipode uninformed;" +
			" the labeled control breaks the symmetry.",
		Columns: []string{"protocol", "instances", "horizon", "antipode informed", "neighbours symmetric"},
	}
	horizon := 1000
	seeds := 1000
	if cfg.Quick {
		horizon, seeds = 200, 200
	}

	// Natural uniform protocols.
	natural := []struct {
		name    string
		factory anonymity.Factory
	}{
		{"algorithm B, all labels 11", func(isSource bool) radio.Protocol {
			var src *string
			if isSource {
				mu := "m"
				src = &mu
			}
			return core.NewAlgB(core.MakeLabel(true, true), src)
		}},
		{"algorithm B, all labels 10", func(isSource bool) radio.Protocol {
			var src *string
			if isSource {
				mu := "m"
				src = &mu
			}
			return core.NewAlgB(core.MakeLabel(true, false), src)
		}},
		{"always transmit once informed", anonymity.PseudorandomProgram(0x5555555555555555)},
	}
	for _, p := range natural {
		out := anonymity.RunFourCycle(p.factory, horizon)
		if out.AntipodeInformed != 0 {
			return nil, fmt.Errorf("%s: antipode informed in round %d", p.name, out.AntipodeInformed)
		}
		t.AddRow(p.name, 1, horizon, "never", boolMark(out.NeighboursSymmetric))
	}

	// Pseudorandom deterministic program sweep.
	seedList := make([]uint64, seeds)
	for i := range seedList {
		seedList[i] = uint64(i)
	}
	type res struct {
		informed int
		sym      bool
	}
	results := sweep.Map(seedList, cfg.Workers, func(seed uint64) res {
		out := anonymity.RunFourCycle(anonymity.PseudorandomProgram(seed), horizon/4)
		return res{out.AntipodeInformed, out.NeighboursSymmetric}
	})
	informedCount, asym := 0, 0
	for _, r := range results {
		if r.informed != 0 {
			informedCount++
		}
		if !r.sym {
			asym++
		}
	}
	if informedCount > 0 || asym > 0 {
		return nil, fmt.Errorf("pseudorandom sweep: %d informed, %d asymmetric", informedCount, asym)
	}
	t.AddRow("pseudorandom deterministic programs", seeds, horizon/4, "never (all seeds)", "yes")

	// Labeled control: λ + B completes on C4.
	out, err := radiobcast.Run(radiobcast.NewNetwork(gC4()), "b", radiobcast.WithMessage("m"))
	if err != nil {
		return nil, err
	}
	if err := radiobcast.Verify(out); err != nil {
		return nil, err
	}
	t.AddRow("control: λ labels + algorithm B", 1, out.CompletionRound,
		fmt.Sprintf("round %d", out.InformedRound[anonymity.Antipode]), "n/a (labels differ)")
	return []*Table{t}, nil
}
