// Package experiments regenerates every artifact of the paper's evaluation:
// Figure 1 and the quantitative content of its facts, lemmas and theorems
// (the paper has no tables). Each experiment is a registered generator that
// produces plain-text tables; the cmd/experiments tool and the root
// bench_test.go harness both drive this registry, and EXPERIMENTS.md records
// paper-versus-measured values for every entry.
package experiments

import (
	"fmt"
	"strings"
)

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Caption string
	Columns []string
	Rows    [][]string
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render returns an aligned plain-text rendering.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	if t.Caption != "" {
		fmt.Fprintf(&b, "%s\n", t.Caption)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// CSV returns a comma-separated rendering (cells with commas are quoted).
func (t *Table) CSV() string {
	var b strings.Builder
	writeCSV := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(cell, ",\"\n") {
				b.WriteString(`"` + strings.ReplaceAll(cell, `"`, `""`) + `"`)
			} else {
				b.WriteString(cell)
			}
		}
		b.WriteByte('\n')
	}
	writeCSV(t.Columns)
	for _, row := range t.Rows {
		writeCSV(row)
	}
	return b.String()
}

// Config tunes experiment scale.
type Config struct {
	// Workers is the sweep parallelism (≤ 0 → GOMAXPROCS).
	Workers int
	// Quick shrinks sweeps for fast CI-style runs.
	Quick bool
}

// Sizes returns the graph-size sweep for the configuration.
func (c Config) Sizes() []int {
	if c.Quick {
		return []int{8, 32, 128}
	}
	return []int{8, 16, 32, 64, 128, 256, 512}
}

// Generator produces the tables of one experiment.
type Generator func(cfg Config) ([]*Table, error)

// Entry describes one registered experiment.
type Entry struct {
	ID   string
	Desc string
	Gen  Generator
}

// Registry lists all experiments in EXPERIMENTS.md order.
var Registry = []Entry{
	{"FIG1", "Figure 1: example execution of algorithm B", Figure1Experiment},
	{"T29", "Theorem 2.9: broadcast completes within 2n−3 rounds", Theorem29Experiment},
	{"L26", "Lemma 2.6 and §2.1 invariants: ℓ ≤ n, facts machine-checked", Lemma26Experiment},
	{"F31", "Fact 3.1: label usage of λ, λack, λarb", Fact31Experiment},
	{"T39", "Theorem 3.9 / Corollary 3.8: acknowledgement window", Theorem39Experiment},
	{"CR", "§3: common completion-knowledge round 2m", CommonRoundExperiment},
	{"ARB", "§4: arbitrary-source broadcast Barb", ArbitraryExperiment},
	{"IMP", "§1: four-cycle impossibility without labels", ImpossibilityExperiment},
	{"CD", "§1: anonymous broadcast with collision detection", CollisionDetectionExperiment},
	{"BASE", "Baselines: label length vs completion time", BaselinesExperiment},
	{"MSG", "Message sizes: B is O(1)+|µ|, Back is O(log n)", MessageSizeExperiment},
	{"ENERGY", "Transmission counts of algorithm B", EnergyExperiment},
	{"ABLDOM", "Ablation: DOM prune order and the necessity of minimality", DomAblationExperiment},
	{"ABLZ", "Ablation: z must be a last-informed node", ZAblationExperiment},
	{"ONEBIT", "§5: one-bit schemes for paths, cycles, grids; search study", OneBitExperiment},
	{"FAULT", "Extension: single-transmission erasures vs algorithm B", FaultExperiment},
	{"DEGRADE", "Extension: graceful degradation under adversarial fault models", DegradeExperiment},
}

// Groups names thematic experiment subsets for cmd/experiments' -table
// flag: a friendly handle (e.g. "fault") expands to the IDs that tell
// that chapter's story.
var Groups = map[string][]string{
	"fault":    {"FAULT", "DEGRADE"},
	"figure":   {"FIG1"},
	"theorems": {"T29", "L26", "F31", "T39", "CR"},
	"baseline": {"BASE", "MSG", "ENERGY"},
	"ablation": {"ABLDOM", "ABLZ"},
}

// Find returns the registered experiment with the given ID.
func Find(id string) (Entry, bool) {
	for _, e := range Registry {
		if e.ID == id {
			return e, true
		}
	}
	return Entry{}, false
}

func boolMark(ok bool) string {
	if ok {
		return "yes"
	}
	return "NO"
}
