package experiments

import (
	"fmt"
	"sort"

	"radiobcast/internal/core"
	"radiobcast/internal/graph"
	"radiobcast/internal/sweep"
)

// Fact31Experiment tallies the distinct labels used by λ, λack and λarb
// across the sweep: the paper claims ≤ 4, 5 (Fact 3.1) and 6 (§5).
func Fact31Experiment(cfg Config) ([]*Table, error) {
	t := &Table{
		ID:      "F31",
		Title:   "Distinct labels used by each scheme (paper: λ ≤ 4, λack = 5, λarb = 6)",
		Caption: "Forbidden λack labels 101/111/011 (Fact 3.1) are checked per node.",
		Columns: []string{"family", "n", "λ distinct", "λack distinct", "λack forbidden", "λarb distinct"},
	}
	agg := &Table{
		ID:      "F31-histogram",
		Title:   "Aggregate label histogram across the full sweep",
		Columns: []string{"scheme", "label", "count"},
	}
	type row struct {
		fam                     string
		n, dl, dack, darb       int
		forbidden               int
		histL, histAck, histArb map[core.Label]int
		err                     error
	}
	rows := sweep.Map(familyGrid(cfg), cfg.Workers, func(c familyCase) row {
		g := graph.Families[c.Family](c.N)
		l, err := core.Lambda(g, 0, core.BuildOptions{})
		if err != nil {
			return row{fam: c.Family, n: g.N(), err: err}
		}
		ack, err := core.LambdaAck(g, 0, core.BuildOptions{})
		if err != nil {
			return row{fam: c.Family, n: g.N(), err: err}
		}
		forbidden := 0
		for _, lab := range ack.Labels {
			if lab.X3() && (lab.X1() || lab.X2()) { // 101, 111 or 011
				forbidden++
			}
		}
		var arbLabels []core.Label
		darb := 0
		if g.N() >= 2 {
			arb, err := core.LambdaArb(g, 0, core.BuildOptions{})
			if err != nil {
				return row{fam: c.Family, n: g.N(), err: err}
			}
			arbLabels = arb.Labels
			darb = core.Distinct(arb.Labels)
		}
		return row{
			fam: c.Family, n: g.N(),
			dl: core.Distinct(l.Labels), dack: core.Distinct(ack.Labels), darb: darb,
			forbidden: forbidden,
			histL:     core.Histogram(l.Labels),
			histAck:   core.Histogram(ack.Labels),
			histArb:   core.Histogram(arbLabels),
		}
	})
	totals := map[string]map[core.Label]int{"λ": {}, "λack": {}, "λarb": {}}
	for _, r := range rows {
		if r.err != nil {
			return nil, fmt.Errorf("%s n=%d: %w", r.fam, r.n, r.err)
		}
		if r.dl > 4 || r.dack > 5 || r.darb > 6 || r.forbidden > 0 {
			return nil, fmt.Errorf("%s n=%d: label-count claim violated (λ=%d λack=%d λarb=%d forbidden=%d)",
				r.fam, r.n, r.dl, r.dack, r.darb, r.forbidden)
		}
		t.AddRow(r.fam, r.n, r.dl, r.dack, r.forbidden, r.darb)
		for lab, c := range r.histL {
			totals["λ"][lab] += c
		}
		for lab, c := range r.histAck {
			totals["λack"][lab] += c
		}
		for lab, c := range r.histArb {
			totals["λarb"][lab] += c
		}
	}
	for _, scheme := range []string{"λ", "λack", "λarb"} {
		labs := make([]string, 0, len(totals[scheme]))
		for lab := range totals[scheme] {
			labs = append(labs, lab.String())
		}
		sort.Strings(labs)
		for _, lab := range labs {
			agg.AddRow(scheme, lab, totals[scheme][core.MustParseLabel(lab)])
		}
	}
	return []*Table{t, agg}, nil
}
