package experiments

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"radiobcast"
	"radiobcast/internal/graph"
)

func quickCfg() Config { return Config{Quick: true, Workers: 4} }

func TestTableRender(t *testing.T) {
	tab := &Table{
		ID: "X", Title: "demo", Caption: "cap",
		Columns: []string{"a", "bee"},
	}
	tab.AddRow(1, "x")
	tab.AddRow(22, 3.14159)
	out := tab.Render()
	if !strings.Contains(out, "== X: demo ==") || !strings.Contains(out, "3.14") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestTableCSV(t *testing.T) {
	tab := &Table{Columns: []string{"a", "b"}}
	tab.AddRow("x,y", `q"z`)
	csv := tab.CSV()
	if !strings.Contains(csv, `"x,y"`) || !strings.Contains(csv, `"q""z"`) {
		t.Fatalf("csv quoting wrong:\n%s", csv)
	}
}

func TestFindRegistry(t *testing.T) {
	if _, ok := Find("T29"); !ok {
		t.Fatal("T29 missing from registry")
	}
	if _, ok := Find("NOPE"); ok {
		t.Fatal("found nonexistent experiment")
	}
	seen := map[string]bool{}
	for _, e := range Registry {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Desc == "" || e.Gen == nil {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
}

func TestConfigSizes(t *testing.T) {
	if len(Config{Quick: true}.Sizes()) >= len(Config{}.Sizes()) {
		t.Fatal("quick sweep should be smaller")
	}
}

// Each experiment runs end to end in quick mode and produces non-empty,
// well-formed tables. These tests ARE the reproduction: a generator fails
// if any paper claim it checks is violated.

func runExp(t *testing.T, id string) []*Table {
	t.Helper()
	e, ok := Find(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	tables, err := e.Gen(quickCfg())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if len(tables) == 0 {
		t.Fatalf("%s: no tables", id)
	}
	for _, tab := range tables {
		if len(tab.Rows) == 0 {
			t.Fatalf("%s/%s: empty table", id, tab.ID)
		}
		for _, row := range tab.Rows {
			if len(row) != len(tab.Columns) {
				t.Fatalf("%s/%s: ragged row %v", id, tab.ID, row)
			}
		}
	}
	return tables
}

func TestFigure1Experiment(t *testing.T) {
	tables := runExp(t, "FIG1")
	// Every node row must match the golden values.
	for _, row := range tables[0].Rows {
		if row[len(row)-1] != "yes" {
			t.Fatalf("FIG1 mismatch: %v", row)
		}
	}
}

func TestTheorem29Experiment(t *testing.T)          { runExp(t, "T29") }
func TestLemma26Experiment(t *testing.T)            { runExp(t, "L26") }
func TestFact31Experiment(t *testing.T)             { runExp(t, "F31") }
func TestTheorem39Experiment(t *testing.T)          { runExp(t, "T39") }
func TestCommonRoundExperiment(t *testing.T)        { runExp(t, "CR") }
func TestArbitraryExperiment(t *testing.T)          { runExp(t, "ARB") }
func TestImpossibilityExperiment(t *testing.T)      { runExp(t, "IMP") }
func TestCollisionDetectionExperiment(t *testing.T) { runExp(t, "CD") }
func TestBaselinesExperiment(t *testing.T)          { runExp(t, "BASE") }
func TestMessageSizeExperiment(t *testing.T)        { runExp(t, "MSG") }
func TestEnergyExperiment(t *testing.T)             { runExp(t, "ENERGY") }
func TestDomAblationExperiment(t *testing.T)        { runExp(t, "ABLDOM") }
func TestZAblationExperiment(t *testing.T)          { runExp(t, "ABLZ") }
func TestOneBitExperiment(t *testing.T)             { runExp(t, "ONEBIT") }

func TestRunAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tables, err := RunAll(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) < len(Registry) {
		t.Fatalf("RunAll produced %d tables for %d experiments", len(tables), len(Registry))
	}
}

// TestFaultExperiment pins the erasure counts of every FAULT row (graph,
// n, events, survived, fatal µ, fatal stay); quick and full mode agree.
func TestFaultExperiment(t *testing.T) {
	want := [][]string{
		{"figure1", "13", "13", "1", "9", "3"},
		{"P10", "10", "9", "0", "9", "0"},
		{"C12", "12", "10", "0", "10", "0"},
		{"grid4x4", "16", "11", "3", "8", "0"},
		{"btree15", "15", "7", "0", "7", "0"},
		{"gnp20", "20", "15", "4", "9", "2"},
	}
	rows := runExp(t, "FAULT")[0].Rows
	if len(rows) != len(want) {
		t.Fatalf("FAULT has %d rows, want %d", len(rows), len(want))
	}
	for i, row := range rows {
		// Skip the derived "survived %" column.
		got := append(append([]string{}, row[:4]...), row[5:]...)
		if !slices.Equal(got, want[i]) {
			t.Errorf("FAULT row %d = %v, want %v", i, got, want[i])
		}
	}
}

func TestRunCommonRound(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Path(6), graph.Figure1(), graph.Grid(3, 3), graph.Cycle(7),
	} {
		out, err := RunCommonRound(radiobcast.NewNetwork(g), "m")
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyCommonRound(out); err != nil {
			t.Fatal(err)
		}
		// m itself is the first ack round; 2m must exceed the second
		// broadcast's completion round.
		if out.CommonRound != 2*out.M {
			t.Fatalf("common round = %d, want 2m = %d", out.CommonRound, 2*out.M)
		}
	}
}

// RunAll executes every experiment and returns all tables.
func RunAll(cfg Config) ([]*Table, error) {
	var out []*Table
	for _, e := range Registry {
		ts, err := e.Gen(cfg)
		if err != nil {
			return out, fmt.Errorf("%s: %w", e.ID, err)
		}
		out = append(out, ts...)
	}
	return out, nil
}
