// Tests for the fault-injection facade: engine-mode bit-identity under
// every fault model, run-level determinism, the degradation metrics, and
// the sweep's Faults axis (labels, grid order, seed folding, Verify
// gating).
package radiobcast_test

import (
	"reflect"
	"testing"

	"radiobcast"
	"radiobcast/internal/radio/radiotest"
)

// faultMatrix covers every model of the subsystem plus a composition;
// node indices stay within the smallest graph the matrix runs on.
func faultMatrix() map[string]radiobcast.FaultSpec {
	return map[string]radiobcast.FaultSpec{
		"rate":          {Model: radiobcast.FaultModelRate, Rate: 0.3, Seed: 5},
		"jam-greedy":    {Model: radiobcast.FaultModelJam, Greedy: true, Budget: 8, Seed: 5},
		"jam-oblivious": {Model: radiobcast.FaultModelJam, Budget: 8, PerRound: 2, Seed: 5},
		"crash-lose":    {Model: radiobcast.FaultModelCrash, Rate: 0.05, Down: 3, Lose: true, Seed: 5},
		"crash-retain":  {Model: radiobcast.FaultModelCrash, Rate: 0.05, Down: 2, Seed: 5},
		"duty":          {Model: radiobcast.FaultModelDuty, Period: 4, On: 3, Seed: 5},
		"churn": {Model: radiobcast.FaultModelChurn, Events: []radiobcast.ChurnEvent{
			{Round: 2, U: 0, V: 1},
			{Round: 3, Add: true, U: 0, V: 5},
			{Round: 7, Add: true, U: 0, V: 1},
		}},
		// Seed 0 aligns every phase, so the model fills whole words.
		"duty-aligned": {Model: radiobcast.FaultModelDuty, Period: 4, On: 3},
		"compose": {Compose: []radiobcast.FaultSpec{
			{Model: radiobcast.FaultModelRate, Rate: 0.1, Seed: 5},
			{Model: radiobcast.FaultModelDuty, Period: 5, On: 4, Seed: 9},
		}},
		"compose-jam": {Compose: []radiobcast.FaultSpec{
			{Model: radiobcast.FaultModelCrash, Rate: 0.05, Down: 2, Lose: true, Seed: 5},
			{Model: radiobcast.FaultModelJam, Greedy: true, Budget: 6, Seed: 5},
		}},
	}
}

// TestEngineModesBitIdenticalFaulted extends the engine-equivalence
// contract to the fault subsystem: under every fault model, the engine —
// pooled, on a caller's Sim, and traced — produces raw Results and
// degradation metrics bit-identical to the reference engine over one
// shared labeling. Each run materializes its own model instance from the
// same spec, so this also pins that (model, seed) fully determines the
// fault pattern.
func TestEngineModesBitIdenticalFaulted(t *testing.T) {
	type cfg struct {
		scheme, family string
		n              int
		far            bool // broadcast from node n−1, not the labeled source
	}
	// The barb rows cover both of its timed spontaneous rounds: from the
	// far end, sG sends its deferred phase-2 ack; from the coordinator, r
	// starts phase 3 by its own clock.
	targets := []cfg{
		{"b", "grid", 16, false}, {"back", "gnp-sparse", 14, false},
		{"barb", "grid", 16, true}, {"barb", "path", 12, false},
	}
	for name, spec := range faultMatrix() {
		for _, tc := range targets {
			t.Run(name+"/"+tc.scheme+"/"+tc.family, func(t *testing.T) {
				net, err := radiobcast.Family(tc.family, tc.n)
				if err != nil {
					t.Fatal(err)
				}
				l, err := radiobcast.LabelNetwork(net, tc.scheme, radiobcast.WithMessage("m"))
				if err != nil {
					t.Fatal(err)
				}
				base := []radiobcast.Option{
					radiobcast.WithMessage("m"),
					radiobcast.WithFaultSpec(spec),
					radiobcast.WithMaxRounds(400),
				}
				if tc.far {
					base = append(base, radiobcast.WithSource(net.Graph.N()-1))
				}
				run := func(opts ...radiobcast.Option) *radiobcast.Outcome {
					t.Helper()
					out, err := radiobcast.RunLabeled(l, append(opts, base...)...)
					if err != nil {
						t.Fatal(err)
					}
					return out
				}
				ref := run(radiobcast.WithEngine(radiotest.Run))
				for mode, out := range map[string]*radiobcast.Outcome{
					"engine":     run(),
					"engine-sim": run(radiobcast.WithSim(radiobcast.NewSim())),
				} {
					if !reflect.DeepEqual(ref.Result, out.Result) {
						t.Fatalf("mode %s diverged from the reference engine", mode)
					}
					if !reflect.DeepEqual(ref.InformedRound, out.InformedRound) {
						t.Fatalf("mode %s: informed rounds differ", mode)
					}
					if ref.Coverage != out.Coverage || ref.Degraded != out.Degraded {
						t.Fatalf("mode %s: degradation metrics differ: %v/%v vs %v/%v",
							mode, out.Coverage, out.Degraded, ref.Coverage, ref.Degraded)
					}
				}
			})
		}
	}
}

// TestFaultSpecRunDeterministic pins run-level determinism through the
// full pipeline (family generation, labeling, engine): two independent
// Run calls with the same (model, seed) are bit-identical.
func TestFaultSpecRunDeterministic(t *testing.T) {
	for name, spec := range faultMatrix() {
		t.Run(name, func(t *testing.T) {
			run := func() *radiobcast.Outcome {
				t.Helper()
				net, err := radiobcast.Family("grid", 25)
				if err != nil {
					t.Fatal(err)
				}
				out, err := radiobcast.Run(net, "b",
					radiobcast.WithMessage("m"),
					radiobcast.WithFaultSpec(spec),
					radiobcast.WithMaxRounds(400))
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			a, b := run(), run()
			if !sameResults(a.Result, b.Result) || !reflect.DeepEqual(a.InformedRound, b.InformedRound) {
				t.Fatalf("same (model, seed) produced different results")
			}
			if a.Coverage != b.Coverage || a.Degraded != b.Degraded {
				t.Fatalf("same (model, seed) produced different degradation: %v/%v vs %v/%v",
					a.Coverage, a.Degraded, b.Coverage, b.Degraded)
			}
		})
	}
}

// TestDegradationGrades drives every Degradation class deterministically:
// a churn event severs the path at a chosen hop before the relay reaches
// it, so the informed prefix — and hence the coverage — is exact.
func TestDegradationGrades(t *testing.T) {
	const n = 10
	sever := func(hop int) radiobcast.Option {
		return radiobcast.WithFaultSpec(radiobcast.FaultSpec{
			Model:  radiobcast.FaultModelChurn,
			Events: []radiobcast.ChurnEvent{{Round: 1, U: hop, V: hop + 1}},
		})
	}
	run := func(opts ...radiobcast.Option) *radiobcast.Outcome {
		t.Helper()
		net, err := radiobcast.Family("path", n)
		if err != nil {
			t.Fatal(err)
		}
		out, err := radiobcast.Run(net, "b", append(opts,
			radiobcast.WithMessage("m"), radiobcast.WithMaxRounds(200))...)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	clean := run()
	if clean.Coverage != 1 || clean.Degraded != radiobcast.DegradedNone {
		t.Fatalf("clean run: coverage %v, degraded %v", clean.Coverage, clean.Degraded)
	}
	if r, ok := clean.RoundsToCoverage(1); !ok || r != clean.CompletionRound {
		t.Fatalf("RoundsToCoverage(1) = (%d, %v), want completion round %d", r, ok, clean.CompletionRound)
	}
	if r, ok := clean.RoundsToCoverage(0); !ok || r != 0 {
		t.Fatalf("RoundsToCoverage(0) = (%d, %v), want (0, true)", r, ok)
	}

	for _, tc := range []struct {
		hop      int // edge {hop, hop+1} is severed at round 1
		coverage float64
		grade    radiobcast.Degradation
	}{
		{8, 0.9, radiobcast.DegradedMinor},
		{4, 0.5, radiobcast.DegradedMajor},
		{2, 0.3, radiobcast.DegradedSevere},
		{0, 0.1, radiobcast.DegradedTotal},
	} {
		out := run(sever(tc.hop))
		if out.AllInformed {
			t.Fatalf("sever at %d: broadcast still completed", tc.hop)
		}
		if out.Coverage != tc.coverage || out.Degraded != tc.grade {
			t.Fatalf("sever at %d: coverage %v grade %v, want %v %v",
				tc.hop, out.Coverage, out.Degraded, tc.coverage, tc.grade)
		}
		frac := tc.coverage
		if _, ok := out.RoundsToCoverage(frac); !ok {
			t.Fatalf("sever at %d: RoundsToCoverage(%v) unreachable despite coverage %v", tc.hop, frac, out.Coverage)
		}
		if _, ok := out.RoundsToCoverage(frac + 0.05); ok {
			t.Fatalf("sever at %d: RoundsToCoverage(%v) reachable beyond coverage %v", tc.hop, frac+0.05, out.Coverage)
		}
	}
}

// TestRunSweepFaultsAxis pins the sweep's Faults axis at the facade:
// grid order and cell count, the "#index" disambiguation of duplicate
// model labels, Verify gating, and the seed-folding contract (a spec
// with Seed 0 inherits the sweep seed; every repeat adds its index) —
// each faulted cell must be bit-identical to a standalone run with the
// folded seed.
func TestRunSweepFaultsAxis(t *testing.T) {
	faults := []radiobcast.FaultSpec{
		{Model: radiobcast.FaultModelRate, Rate: 0.3},
		{Model: radiobcast.FaultModelRate, Rate: 0.6, Seed: 11},
		{Model: radiobcast.FaultModelDuty, Period: 4, On: 3},
	}
	results, err := radiobcast.RunSweep(radiobcast.SweepSpec{
		Families: []string{"grid"},
		Sizes:    []int{16},
		Schemes:  []string{"b"},
		Mu:       "m",
		Seed:     7,
		Repeats:  2,
		Faults:   faults,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Axis: the default clean rate 0 plus three specs, each twice.
	if len(results) != 8 {
		t.Fatalf("got %d cells, want 8", len(results))
	}
	wantLabels := []string{"", "", "rate#0", "rate#0", "rate#1", "rate#1", "duty", "duty"}
	for i, c := range results {
		if c.Err != nil {
			t.Fatalf("cell %s: %v", c.Cell, c.Err)
		}
		if c.Index != i {
			t.Fatalf("cell %d carries index %d: grid order lost", i, c.Index)
		}
		if c.Cell.Fault != wantLabels[i] || c.Cell.Repeat != i%2 {
			t.Fatalf("cell %d = %q rep %d, want %q rep %d",
				i, c.Cell.Fault, c.Cell.Repeat, wantLabels[i], i%2)
		}
		if c.Cell.Faulted() != (wantLabels[i] != "") {
			t.Fatalf("cell %d: Faulted() = %v under label %q", i, c.Cell.Faulted(), c.Cell.Fault)
		}
		if faulted := c.Cell.Faulted(); faulted == c.Verified {
			t.Fatalf("cell %d: faulted %v but verified %v", i, faulted, c.Verified)
		}
		if c.Cell.Faulted() && (c.Outcome.Coverage <= 0 || c.Outcome.Degraded == "") {
			t.Fatalf("cell %d: faulted cell missing degradation metrics", i)
		}
	}

	// Seed folding: spec seeds 0 inherit the sweep seed 7; explicit seeds
	// stand; repeat r adds r. Reproduce each faulted cell standalone.
	net, err := radiobcast.Family("grid", 16)
	if err != nil {
		t.Fatal(err)
	}
	l, err := radiobcast.LabelNetwork(net, "b", radiobcast.WithMessage("m"))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range map[int]radiobcast.FaultSpec{
		2: {Model: radiobcast.FaultModelRate, Rate: 0.3, Seed: 7},
		3: {Model: radiobcast.FaultModelRate, Rate: 0.3, Seed: 8},
		4: {Model: radiobcast.FaultModelRate, Rate: 0.6, Seed: 11},
		5: {Model: radiobcast.FaultModelRate, Rate: 0.6, Seed: 12},
		6: {Model: radiobcast.FaultModelDuty, Period: 4, On: 3, Seed: 7},
		7: {Model: radiobcast.FaultModelDuty, Period: 4, On: 3, Seed: 8},
	} {
		ref, err := radiobcast.RunLabeled(l,
			radiobcast.WithMessage("m"), radiobcast.WithFaultSpec(want))
		if err != nil {
			t.Fatal(err)
		}
		if !sameResults(ref.Result, results[i].Outcome.Result) {
			t.Fatalf("cell %d (%s): sweep result differs from standalone run with folded seed %d",
				i, results[i].Cell, want.Seed)
		}
	}
}
