package experiments

import (
	"fmt"

	"radiobcast"
	"radiobcast/internal/core"
	"radiobcast/internal/graph"
	"radiobcast/internal/sweep"
)

// BaselinesExperiment compares λ against the introduction's alternatives on
// both axes the paper cares about: label length (bits) and completion time
// (rounds). The expected shape: λ always uses 2 bits with Θ(n) time;
// round-robin uses ⌈log n⌉ bits with Θ(n·D)-ish time; colour-robin uses
// O(log Δ) bits and wins on time for bounded-degree graphs but its label
// length blows up on stars/cliques; the centralized scheduler (full
// topology knowledge, no labels) lower-bounds what schedules can do.
//
// The whole family × size × scheme grid runs as one radiobcast.RunSweep
// job: frozen graphs and labelings are shared across cells and every
// worker reuses one engine, so the quick path stays quick as sizes grow.
func BaselinesExperiment(cfg Config) ([]*Table, error) {
	t := &Table{
		ID:    "BASE",
		Title: "Label bits vs completion rounds: λ, round-robin, colour-robin, centralized",
		Caption: "bits = scheme length in bits (centralized hands out full schedules, not labels);" +
			" rounds = completion round of the broadcast.",
		Columns: []string{"family", "n", "Δ", "ecc",
			"λ bits", "λ rounds", "RR bits", "RR rounds",
			"color bits", "color rounds", "central rounds"},
	}
	schemes := []string{"b", "roundrobin", "colorrobin", "centralized"}
	results, err := radiobcast.RunSweep(radiobcast.SweepSpec{
		Families: graph.FamilyNames(),
		Sizes:    cfg.Sizes(),
		Schemes:  schemes,
		Mu:       "m",
		Workers:  cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	// Grid order groups the per-(family, size) cells into scheme-order
	// chunks; assemble one table row per chunk.
	for i := 0; i < len(results); i += len(schemes) {
		chunk := results[i : i+len(schemes)]
		if chunk[0].N < 2 {
			continue
		}
		cells := make(map[string]radiobcast.CellResult, len(schemes))
		for _, c := range chunk {
			if c.Err != nil {
				return nil, fmt.Errorf("%s: %w", c.Cell, c.Err)
			}
			cells[c.Cell.Scheme] = c
		}
		lam, rr, col, cen := cells["b"], cells["roundrobin"], cells["colorrobin"], cells["centralized"]
		g := lam.Outcome.Graph
		t.AddRow(lam.Cell.Family, lam.N, g.MaxDegree(), g.Eccentricity(0),
			core.MaxLen(lam.Outcome.Labeling.Labels), lam.Outcome.CompletionRound,
			rr.Outcome.Labeling.Bits(), rr.Outcome.CompletionRound,
			col.Outcome.Labeling.Bits(), col.Outcome.CompletionRound,
			cen.Outcome.CompletionRound)
	}
	return []*Table{t}, nil
}

// MessageSizeExperiment verifies the message-size claims: B's messages stay
// constant-size (kind + |µ|) while Back's grow as Θ(log n) (the appended
// round number, Lemma 3.5).
func MessageSizeExperiment(cfg Config) ([]*Table, error) {
	t := &Table{
		ID:      "MSG",
		Title:   "Maximum message size in bits (paths; payload µ = 1 byte)",
		Caption: "B is constant; Back tracks 3 + 8 + ⌈log₂(max timestamp)⌉ ≈ O(log n).",
		Columns: []string{"n", "B bits", "Back bits", "⌈log₂(2n)⌉"},
	}
	for _, n := range cfg.Sizes() {
		net := radiobcast.NewNetwork(graph.Path(n))
		b, err := radiobcast.Run(net, "b", radiobcast.WithMessage("m"))
		if err != nil {
			return nil, err
		}
		back, err := radiobcast.Run(net, "back", radiobcast.WithMessage("m"))
		if err != nil {
			return nil, err
		}
		logTerm := 0
		for (1 << uint(logTerm)) < 2*n {
			logTerm++
		}
		if b.Result.MaxMessageBits > 11 {
			return nil, fmt.Errorf("n=%d: B messages %d bits, want constant", n, b.Result.MaxMessageBits)
		}
		t.AddRow(n, b.Result.MaxMessageBits, back.Result.MaxMessageBits, logTerm)
	}
	return []*Table{t}, nil
}

// EnergyExperiment measures per-node and total transmissions of B: the
// schedule transmits only from DOM sets, so totals stay linear in n.
func EnergyExperiment(cfg Config) ([]*Table, error) {
	t := &Table{
		ID:      "ENERGY",
		Title:   "Transmission counts of algorithm B",
		Columns: []string{"family", "n", "total tx", "tx/n", "max tx per node"},
	}
	type row struct {
		fam          string
		n, total, mx int
		err          error
	}
	rows := sweep.Map(familyGrid(cfg), cfg.Workers, func(c familyCase) row {
		g := graph.Families[c.Family](c.N)
		out, err := radiobcast.Run(radiobcast.NewNetwork(g), "b", radiobcast.WithMessage("m"))
		if err != nil {
			return row{fam: c.Family, n: g.N(), err: err}
		}
		return row{
			fam: c.Family, n: g.N(),
			total: out.Result.TotalTransmissions,
			mx:    out.Result.MaxTransmissionsPerNode(),
		}
	})
	for _, r := range rows {
		if r.err != nil {
			return nil, fmt.Errorf("%s n=%d: %w", r.fam, r.n, r.err)
		}
		t.AddRow(r.fam, r.n, r.total, float64(r.total)/float64(r.n), r.mx)
	}
	return []*Table{t}, nil
}
