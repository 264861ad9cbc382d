package radio_test

import (
	"testing"

	"radiobcast/internal/faults"
	"radiobcast/internal/graph"
	"radiobcast/internal/radio"
	"radiobcast/internal/radio/radiotest"
)

// TestRunBatchMatchesRun pins the lockstep batch driver: every lane of a
// mixed batch — different protocol populations, round bounds, stop
// conditions, fault models, a traced lane, a topology-churning lane and
// a lane handed to Options.Engine — yields a Result bit-identical to a
// standalone Run and to the reference engine with the same inputs.
func TestRunBatchMatchesRun(t *testing.T) {
	drop := func(node, round int) bool { return (node+round)%5 == 0 }
	engineRuns := 0
	engine := func(g *graph.Graph, ps []radio.Protocol, opt radio.Options) *radio.Result {
		engineRuns++
		return radiotest.Run(g, ps, opt)
	}
	for name, g := range testGraphs(t) {
		n := g.N()
		churn := func() faults.Model {
			return faults.NewChurn(g, []faults.ChurnEvent{
				{Round: 2, U: 0, V: 1},
				{Round: 4, Add: true, U: 0, V: n - 1},
				{Round: 9, Add: true, U: 0, V: 1},
			})
		}
		// Each call builds fresh protocols, models and traces, so the
		// batch, the standalone runs and the reference runs share no state.
		mk := func() []radio.BatchRun {
			return []radio.BatchRun{
				{Protos: randomProtocols(n, 1), Opt: radio.Options{MaxRounds: 60}},
				{Protos: randomProtocols(n, 2), Opt: radio.Options{MaxRounds: 25}},
				{Protos: randomProtocols(n, 3), Opt: radio.Options{MaxRounds: 60, Faults: faults.DropFunc(drop)}},
				{Protos: randomProtocols(n, 4), Opt: radio.Options{MaxRounds: 60, StopAfterSilent: 3}},
				{Protos: randomProtocols(n, 5), Opt: radio.Options{MaxRounds: 60, Sim: radio.NewSim()}},
				{Protos: randomProtocols(n, 6), Opt: radio.Options{MaxRounds: 60, Trace: &radio.Trace{}}},
				{Protos: randomProtocols(n, 7), Opt: radio.Options{MaxRounds: 60, Faults: churn()}},
				{Protos: randomProtocols(n, 8), Opt: radio.Options{MaxRounds: 60, Faults: churn(), Trace: &radio.Trace{}}},
				{Protos: randomProtocols(n, 9), Opt: radio.Options{MaxRounds: 60, Engine: engine}},
			}
		}
		lanes, solos, refs := mk(), mk(), mk()
		engineRuns = 0
		batch := radio.RunBatch(g, lanes)
		if engineRuns != 1 {
			t.Fatalf("%s: RunBatch ran %d lanes on Options.Engine, want 1", name, engineRuns)
		}
		for i, lane := range lanes {
			want := radiotest.Run(g, refs[i].Protos, refs[i].Opt)
			if !sameRun(want, batch[i], refs[i].Opt.Trace, lane.Opt.Trace) {
				t.Fatalf("%s: lane %d diverged from the reference engine", name, i)
			}
			solo := radio.Run(g, solos[i].Protos, solos[i].Opt)
			if !sameRun(solo, batch[i], solos[i].Opt.Trace, lane.Opt.Trace) {
				t.Fatalf("%s: lane %d diverged from standalone Run", name, i)
			}
		}
	}
}

// TestRunBatchEmpty: a zero-lane batch is a no-op, not a panic.
func TestRunBatchEmpty(t *testing.T) {
	if got := radio.RunBatch(testGraphs(t)["path"], nil); len(got) != 0 {
		t.Fatalf("empty batch returned %d results", len(got))
	}
}

// BenchmarkRunBatch measures the lockstep win: 8 same-graph runs as one
// batch versus 8 standalone runs (the label-once/run-many regime the
// sweep folds into batches).
func BenchmarkRunBatch(b *testing.B) {
	const lanes = 8
	g := testGraphs(b)["grid"]
	n := g.N()
	mk := func() []radio.BatchRun {
		runs := make([]radio.BatchRun, lanes)
		for i := range runs {
			runs[i] = radio.BatchRun{Protos: randomProtocols(n, int64(i+1)), Opt: radio.Options{MaxRounds: 60}}
		}
		return runs
	}
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			radio.RunBatch(g, mk())
		}
	})
	b.Run("solo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, r := range mk() {
				radio.Run(g, r.Protos, r.Opt)
			}
		}
	})
}
