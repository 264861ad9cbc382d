package experiments

import (
	"fmt"
	"sort"
	"strings"

	"radiobcast"
	"radiobcast/internal/graph"
)

// Figure1Experiment reproduces the paper's Figure 1: it labels the
// reconstructed 13-node graph with λ, runs algorithm B, and renders the
// per-node annotations (label, transmit rounds, receive rounds) in the
// figure's format, cross-checking each against the golden values.
func Figure1Experiment(cfg Config) ([]*Table, error) {
	tr := &radiobcast.Trace{}
	out, err := radiobcast.Run(radiobcast.Figure1(), "b", radiobcast.WithMessage("µ"), radiobcast.WithTrace(tr))
	if err != nil {
		return nil, err
	}
	if err := radiobcast.Verify(out); err != nil {
		return nil, err
	}
	g, l := out.Graph, out.Labeling

	t := &Table{
		ID:    "FIG1",
		Title: "Figure 1 reconstruction (13 nodes, ℓ=5, completes in round 7 = 2ℓ−3)",
		Caption: "{..} = rounds the node transmits, (..) = rounds it first receives µ / acts on a message;" +
			" golden = values derived from the paper's figure.",
		Columns: []string{"node", "label", "transmits", "golden-tx", "informed", "golden-informed", "match"},
	}
	for v := 0; v < g.N(); v++ {
		tx := intSet(out.Result.Transmits(v))
		goldenTx := intSet(graph.Figure1Transmits[v])
		informed := out.InformedRound[v]
		goldenInf := graph.Figure1InformedRounds[v]
		labelOK := l.Labels[v].String() == graph.Figure1Labels[v]
		match := tx == goldenTx && informed == goldenInf && labelOK
		t.AddRow(v, l.Labels[v].String(), tx, goldenTx, informed, goldenInf, boolMark(match))
	}

	round := &Table{
		ID:      "FIG1-rounds",
		Title:   "Figure 1 round-by-round channel activity",
		Columns: []string{"round", "transmitters", "deliveries", "meaning"},
	}
	for _, r := range tr.Rounds {
		var txs, rxs []string
		for _, tx := range r.Transmitters {
			txs = append(txs, fmt.Sprintf("%d", tx.Node))
		}
		for _, rx := range r.Deliveries {
			rxs = append(rxs, fmt.Sprintf("%d", rx.Node))
		}
		meaning := "µ from DOM_" + fmt.Sprintf("%d", (r.Round+1)/2)
		if r.Round%2 == 0 {
			meaning = "stay from NEW_" + fmt.Sprintf("%d", r.Round/2)
		}
		round.AddRow(r.Round, strings.Join(txs, " "), strings.Join(rxs, " "), meaning)
	}
	return []*Table{t, round}, nil
}

func intSet(xs []int) string {
	sorted := append([]int(nil), xs...)
	sort.Ints(sorted)
	parts := make([]string, len(sorted))
	for i, x := range sorted {
		parts[i] = fmt.Sprintf("%d", x)
	}
	return "{" + strings.Join(parts, ",") + "}"
}
