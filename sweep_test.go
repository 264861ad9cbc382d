// Tests for the engine-mode equivalence contract, the WithTrace and
// fault-injection facade paths, the steady-state allocation guarantee of
// reused Sims, and the Sweep subsystem.
package radiobcast_test

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"radiobcast"
	"radiobcast/internal/graph"
	"radiobcast/internal/radio"
	"radiobcast/internal/radio/radiotest"
)

func sameResults(a, b *radio.Result) bool {
	if a.Rounds != b.Rounds ||
		a.TotalTransmissions != b.TotalTransmissions ||
		a.MaxMessageBits != b.MaxMessageBits ||
		a.SilentStopped != b.SilentStopped ||
		!reflect.DeepEqual(a.Collisions, b.Collisions) {
		return false
	}
	for v := range a.N() {
		if !slices.Equal(a.Transmits(v), b.Transmits(v)) || !slices.Equal(a.Receives(v), b.Receives(v)) {
			return false
		}
	}
	return true
}

// TestEngineModesBitIdentical pins the engine's core contract on the
// full scheme × family matrix: the engine — pooled, on a caller's Sim,
// and traced — produces raw Results bit-identical to the reference
// engine (not just equal summaries) over one shared labeling.
func TestEngineModesBitIdentical(t *testing.T) {
	type fam struct {
		name string
		n    int
	}
	general := []fam{{"path", 12}, {"cycle", 9}, {"grid", 16}, {"gnp-sparse", 14}, {"complete", 8}, {"star", 9}}
	matrix := map[string][]fam{
		"b":           general,
		"back":        general,
		"barb":        general,
		"roundrobin":  general,
		"colorrobin":  general,
		"centralized": general,
		"onebit":      {{"path", 8}, {"grid", 9}},
		"flooding":    {{"path", 8}, {"star", 9}},
		"gjp":         {{"path", 12}, {"cycle", 9}, {"grid", 16}, {"star", 9}},
	}
	for scheme, fams := range matrix {
		for _, f := range fams {
			t.Run(scheme+"/"+f.name, func(t *testing.T) {
				net, err := radiobcast.Family(f.name, f.n)
				if err != nil {
					t.Fatal(err)
				}
				l, err := radiobcast.LabelNetwork(net, scheme, radiobcast.WithMessage("m"))
				if err != nil {
					t.Fatal(err)
				}
				run := func(opts ...radiobcast.Option) *radiobcast.Outcome {
					t.Helper()
					out, err := radiobcast.RunLabeled(l, append(opts, radiobcast.WithMessage("m"))...)
					if err != nil {
						t.Fatal(err)
					}
					return out
				}
				// Count the reference runs: a scheme whose runner dropped
				// the engine seam would compare the engine with itself.
				refRuns := 0
				ref := run(radiobcast.WithEngine(func(g *graph.Graph, ps []radio.Protocol, opt radio.Options) *radio.Result {
					refRuns++
					return radiotest.Run(g, ps, opt)
				}))
				if refRuns == 0 {
					t.Fatal("the run never reached the reference engine")
				}
				for mode, out := range map[string]*radiobcast.Outcome{
					"engine":     run(),
					"engine-sim": run(radiobcast.WithSim(radiobcast.NewSim())),
					"traced":     run(radiobcast.WithTrace(&radiobcast.Trace{})),
				} {
					if !reflect.DeepEqual(ref.Result, out.Result) {
						t.Fatalf("mode %s diverged from the reference engine", mode)
					}
					if !reflect.DeepEqual(ref.InformedRound, out.InformedRound) {
						t.Fatalf("mode %s: informed rounds differ", mode)
					}
				}
			})
		}
	}
}

// TestWithTraceMatchesResult cross-checks the WithTrace facade path: the
// trace must equal the reference engine's, and its per-round transmitter
// and delivery records must agree exactly with the Result's per-node
// transmit/receive logs — on clean runs and under every fault model,
// churn included.
func TestWithTraceMatchesResult(t *testing.T) {
	type tc struct {
		name, scheme string
		opts         []radiobcast.Option
	}
	var cases []tc
	for _, scheme := range []string{"b", "back", "centralized"} {
		cases = append(cases, tc{name: scheme, scheme: scheme})
	}
	for name, spec := range faultMatrix() {
		cases = append(cases, tc{"b/" + name, "b",
			[]radiobcast.Option{radiobcast.WithFaultSpec(spec), radiobcast.WithMaxRounds(400)}})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			net, err := radiobcast.Family("grid", 25)
			if err != nil {
				t.Fatal(err)
			}
			run := func(extra ...radiobcast.Option) (*radiobcast.Outcome, *radiobcast.Trace) {
				t.Helper()
				tr := &radiobcast.Trace{}
				opts := append([]radiobcast.Option{radiobcast.WithMessage("m"), radiobcast.WithTrace(tr)}, c.opts...)
				out, err := radiobcast.Run(net, c.scheme, append(opts, extra...)...)
				if err != nil {
					t.Fatal(err)
				}
				return out, tr
			}
			out, tr := run()
			if _, ref := run(radiobcast.WithEngine(radiotest.Run)); !reflect.DeepEqual(tr, ref) {
				t.Fatal("trace diverged from the reference engine's")
			}
			res := out.Result

			// Rebuild the per-round views from the Result.
			txByRound := map[int]map[int]bool{}
			for v := range res.N() {
				for _, r := range res.Transmits(v) {
					if txByRound[r] == nil {
						txByRound[r] = map[int]bool{}
					}
					txByRound[r][v] = true
				}
			}
			rxByRound := map[int]map[int]bool{}
			for v := range res.N() {
				for _, rec := range res.Receives(v) {
					if rxByRound[rec.Round] == nil {
						rxByRound[rec.Round] = map[int]bool{}
					}
					rxByRound[rec.Round][v] = true
				}
			}

			tracedRounds := map[int]bool{}
			for _, round := range tr.Rounds {
				tracedRounds[round.Round] = true
				gotTx := map[int]bool{}
				for _, tx := range round.Transmitters {
					gotTx[tx.Node] = true
				}
				if !reflect.DeepEqual(gotTx, orEmpty(txByRound[round.Round])) {
					t.Fatalf("round %d: trace transmitters %v, result %v",
						round.Round, gotTx, txByRound[round.Round])
				}
				gotRx := map[int]bool{}
				for _, rx := range round.Deliveries {
					gotRx[rx.Node] = true
				}
				if !reflect.DeepEqual(gotRx, orEmpty(rxByRound[round.Round])) {
					t.Fatalf("round %d: trace deliveries %v, result %v",
						round.Round, gotRx, rxByRound[round.Round])
				}
			}
			// Every active round must appear in the trace.
			for r := range txByRound {
				if !tracedRounds[r] {
					t.Fatalf("round %d has transmissions but no trace record", r)
				}
			}
		})
	}
}

func orEmpty(m map[int]bool) map[int]bool {
	if m == nil {
		return map[int]bool{}
	}
	return m
}

// TestWithFaultsSuppressesDelivery pins the fault path end to end for
// every scheme's runner: with every transmission jammed, traffic still
// flows (nodes believe they transmitted) but nothing is ever delivered.
func TestWithFaultsSuppressesDelivery(t *testing.T) {
	net, err := radiobcast.Family("grid", 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range radiobcast.SchemeNames() {
		t.Run(scheme, func(t *testing.T) {
			out, err := radiobcast.Run(net, scheme,
				radiobcast.WithMessage("m"),
				radiobcast.FaultRate(1, 1))
			if err != nil {
				t.Fatal(err)
			}
			if out.Result.TotalTransmissions == 0 {
				t.Fatal("jammed run recorded no transmissions; faults should jam, not silence, the sender")
			}
			for v := range out.Result.N() {
				if recs := out.Result.Receives(v); len(recs) != 0 {
					t.Fatalf("node %d received %d messages through a fully jammed channel", v, len(recs))
				}
			}
			if out.AllInformed {
				t.Fatal("broadcast claims completion with every transmission jammed")
			}
			for v, r := range out.InformedRound {
				if v != out.Source && r != radiobcast.NoReception {
					t.Fatalf("node %d marked informed in round %d under a fully jammed channel", v, r)
				}
			}
		})
	}
}

// TestFaultRateDeterministic pins the seeded fault model: same (rate,
// seed) jams the same transmissions, different seeds differ, and the
// rate bounds behave — rate 0 is the clean channel, rate 1 jams every
// transmission, NaN and negative rates are typed errors.
func TestFaultRateDeterministic(t *testing.T) {
	net, err := radiobcast.Family("grid", 16)
	if err != nil {
		t.Fatal(err)
	}
	run := func(opts ...radiobcast.Option) *radiobcast.Outcome {
		t.Helper()
		out, err := radiobcast.Run(net, "b", append(opts, radiobcast.WithMessage("m"))...)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a := run(radiobcast.FaultRate(0.3, 7))
	b := run(radiobcast.FaultRate(0.3, 7))
	c := run(radiobcast.FaultRate(0.3, 8))
	if !sameResults(a.Result, b.Result) {
		t.Fatal("FaultRate with identical (rate, seed) disagreed with itself")
	}
	if sameResults(a.Result, c.Result) {
		t.Fatal("FaultRate with different seeds never disagreed (suspicious)")
	}

	clean := run(radiobcast.FaultRate(0, 1))
	if !clean.AllInformed {
		t.Fatal("rate 0 should be the clean channel")
	}
	jammedAll := run(radiobcast.FaultRate(1, 1))
	if jammedAll.Result.TotalTransmissions == 0 {
		t.Fatal("rate 1 silenced the senders; it should jam, not silence")
	}
	for v := range jammedAll.Result.N() {
		if recs := jammedAll.Result.Receives(v); len(recs) != 0 {
			t.Fatalf("node %d received %d messages at fault rate 1", v, len(recs))
		}
	}

	for _, bad := range []float64{-0.5, math.NaN()} {
		_, err := radiobcast.Run(net, "b", radiobcast.FaultRate(bad, 1))
		if !errors.Is(err, radiobcast.ErrBadFaultSpec) {
			t.Fatalf("FaultRate(%v) error = %v, want ErrBadFaultSpec", bad, err)
		}
		var bfe *radiobcast.BadFaultSpecError
		if !errors.As(err, &bfe) {
			t.Fatalf("FaultRate(%v) error is no *BadFaultSpecError: %v", bad, err)
		}
	}
}

// TestRunLabeledSteadyStateAllocs pins the label-once/run-many regime the
// refactor exists for: with a reused Sim, a steady-state RunLabeled of any
// λ scheme allocates only the per-run protocols and outcome — the count
// must not scale with n, traffic or rounds (the pre-refactor engine did
// thousands of allocations on this workload). barb broadcasts from the
// far end, so its source is not the coordinator.
func TestRunLabeledSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		scheme, family string
		n              int
	}{
		{"b", "grid", 256},
		{"b", "path", 1024}, {"b", "grid", 1024},
		{"back", "path", 1024}, {"back", "grid", 1024},
		{"barb", "path", 1024}, {"barb", "grid", 1024},
	} {
		t.Run(fmt.Sprintf("%s/%s/%d", tc.scheme, tc.family, tc.n), func(t *testing.T) {
			net, err := radiobcast.Family(tc.family, tc.n)
			if err != nil {
				t.Fatal(err)
			}
			l, err := radiobcast.LabelNetwork(net, tc.scheme)
			if err != nil {
				t.Fatal(err)
			}
			opts := []radiobcast.Option{radiobcast.WithMessage("m"), radiobcast.WithSim(radiobcast.NewSim())}
			if tc.scheme == "barb" {
				opts = append(opts, radiobcast.WithSource(net.Graph.N()-1))
			}
			run := func() {
				out, err := radiobcast.RunLabeled(l, opts...)
				if err != nil || !out.AllInformed {
					t.Fatalf("run failed: %v", err)
				}
			}
			run() // warm-up sizes the Sim's buffers
			allocs := testing.AllocsPerRun(10, run)
			// Fresh protocols, the detached Result, the outcome assembly and
			// the option slice: a fixed small budget, independent of n and
			// traffic.
			const budget = 40
			if allocs > budget {
				t.Fatalf("steady-state RunLabeled does %.0f allocs/run, want ≤ %d", allocs, budget)
			}
		})
	}
}

// TestPooledRunBytesPerNode pins what a pooled run allocates: on a reused
// Sim, a RunLabeled of b or back allocates its Result and outcome, not
// per-node slice headers or a fresh protocol slab; path/1024 reads about
// 130 bytes per node for b, most of it receptions. The mean over many
// runs keeps a GC that empties a pool mid-measurement from mattering.
func TestPooledRunBytesPerNode(t *testing.T) {
	for _, tc := range []struct {
		scheme  string
		perNode float64
	}{{"b", 200}, {"back", 320}} {
		t.Run(tc.scheme, func(t *testing.T) {
			net, err := radiobcast.Family("path", 1024)
			if err != nil {
				t.Fatal(err)
			}
			l, err := radiobcast.LabelNetwork(net, tc.scheme)
			if err != nil {
				t.Fatal(err)
			}
			opts := []radiobcast.Option{radiobcast.WithMessage("m"), radiobcast.WithSim(radiobcast.NewSim())}
			run := func() {
				out, err := radiobcast.RunLabeled(l, opts...)
				if err != nil || !out.AllInformed {
					t.Fatalf("run failed: %v", err)
				}
			}
			run() // warm-up sizes the Sim and fills the slab pool
			const runs = 200
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range runs {
				run()
			}
			runtime.ReadMemStats(&after)
			got := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(net.Graph.N())
			if got > tc.perNode {
				t.Fatalf("a pooled %s run on path/1024 allocates %.0f bytes per node, want ≤ %.0f", tc.scheme, got, tc.perNode)
			}
			t.Logf("%.0f bytes per node", got)
		})
	}
}

// TestVerifyAllocatesNothing pins that Verify reads an outcome without
// allocating, for every registered scheme on path/256 and grid/256, from
// the last node, so barb's coordinator (node 0) is not its source. It
// covers each cell where the scheme labels and passes Verify: flooding is
// not universal, and the searched schemes may find no labeling.
func TestVerifyAllocatesNothing(t *testing.T) {
	for _, family := range []string{"path", "grid"} {
		net, err := radiobcast.Family(family, 256)
		if err != nil {
			t.Fatal(err)
		}
		net = net.At(net.Graph.N() - 1)
		for _, scheme := range radiobcast.SchemeNames() {
			out, err := radiobcast.Run(net, scheme, radiobcast.WithMessage("m"))
			if errors.Is(err, radiobcast.ErrNoLabeling) {
				continue
			}
			if err != nil {
				t.Fatalf("%s on %s/256: %v", scheme, family, err)
			}
			if err := radiobcast.Verify(out); err != nil {
				if scheme == "flooding" {
					continue
				}
				t.Fatalf("%s on %s/256: %v", scheme, family, err)
			}
			if allocs := testing.AllocsPerRun(10, func() { _ = radiobcast.Verify(out) }); allocs != 0 {
				t.Errorf("%s on %s/256: Verify makes %.0f allocations, want 0", scheme, family, allocs)
			}
		}
	}
}

// TestRunSweepMatchesIndividualRuns pins the Sweep subsystem's sharing:
// every cell of a batched job must be bit-identical to the same run
// performed standalone through the plain facade.
func TestRunSweepMatchesIndividualRuns(t *testing.T) {
	spec := radiobcast.SweepSpec{
		Families:   []string{"path", "grid"},
		Sizes:      []int{16, 36},
		Schemes:    []string{"b", "roundrobin", "centralized", "gjp"},
		Sources:    []int{0, -1},
		FaultRates: []float64{0, 0.05},
		Repeats:    2,
		Mu:         "m",
		Workers:    4,
	}
	results, err := radiobcast.RunSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := len(spec.Families) * len(spec.Sizes) * len(spec.Schemes) *
		len(spec.Sources) * len(spec.FaultRates) * spec.Repeats
	if len(results) != want {
		t.Fatalf("sweep returned %d cells, want %d", len(results), want)
	}
	for _, c := range results {
		if c.Err != nil {
			t.Fatalf("%s: %v", c.Cell, c.Err)
		}
		if c.Cell.FaultRate == 0 && !c.Verified {
			t.Fatalf("%s: fault-free cell not verified", c.Cell)
		}
		if c.Cell.FaultRate > 0 && c.Verified {
			t.Fatalf("%s: faulty cell claims verification", c.Cell)
		}

		// Reproduce the cell standalone.
		net, err := radiobcast.Family(c.Cell.Family, c.Cell.Size)
		if err != nil {
			t.Fatal(err)
		}
		opts := []radiobcast.Option{
			radiobcast.WithMessage("m"),
			radiobcast.WithSource(c.Cell.Source),
		}
		if c.Cell.FaultRate > 0 {
			opts = append(opts, radiobcast.FaultRate(c.Cell.FaultRate, 1+int64(c.Cell.Repeat)))
		}
		solo, err := radiobcast.Run(net.At(c.Cell.Source), c.Cell.Scheme, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if !sameResults(solo.Result, c.Outcome.Result) {
			t.Fatalf("%s: sweep cell diverged from standalone run", c.Cell)
		}
	}
}

// TestRunSweepStreaming checks the OnCell stream: every grid cell is
// delivered exactly once, and the returned slice is in grid order.
func TestRunSweepStreaming(t *testing.T) {
	var streamed []radiobcast.SweepCell
	spec := radiobcast.SweepSpec{
		Families: []string{"path"},
		Sizes:    []int{8, 12},
		Schemes:  []string{"b", "back"},
		Workers:  3,
		OnCell:   func(c radiobcast.CellResult) { streamed = append(streamed, c.Cell) },
	}
	results, err := radiobcast.RunSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(results) {
		t.Fatalf("streamed %d cells, returned %d", len(streamed), len(results))
	}
	seen := map[string]int{}
	for _, c := range streamed {
		seen[c.String()]++
	}
	var wantOrder []string
	for _, size := range spec.Sizes {
		for _, scheme := range spec.Schemes {
			wantOrder = append(wantOrder, fmt.Sprintf("path/n=%d/%s/src=0", size, scheme))
		}
	}
	for i, c := range results {
		if c.Cell.String() != wantOrder[i] {
			t.Fatalf("result %d is %s, want grid order %s", i, c.Cell, wantOrder[i])
		}
		if seen[c.Cell.String()] != 1 {
			t.Fatalf("cell %s streamed %d times", c.Cell, seen[c.Cell.String()])
		}
	}
}

// TestRunSweepDeterministic pins run-to-run reproducibility of a faulty
// concurrent sweep (shared labelings plus the seeded fault model).
func TestRunSweepDeterministic(t *testing.T) {
	spec := radiobcast.SweepSpec{
		Families:   []string{"grid"},
		Sizes:      []int{25},
		Schemes:    []string{"b"},
		FaultRates: []float64{0.1},
		Repeats:    3,
		Workers:    4,
		Seed:       9,
	}
	a, err := radiobcast.RunSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := radiobcast.RunSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !sameResults(a[i].Outcome.Result, b[i].Outcome.Result) {
			t.Fatalf("%s: repeated sweep diverged", a[i].Cell)
		}
	}
}

// TestRunSweepSpecErrors checks that unusable specs fail fast.
func TestRunSweepSpecErrors(t *testing.T) {
	if _, err := radiobcast.RunSweep(radiobcast.SweepSpec{}); err == nil {
		t.Fatal("empty spec did not error")
	}
	if _, err := radiobcast.RunSweep(radiobcast.SweepSpec{
		Families: []string{"path"}, Sizes: []int{8}, Schemes: []string{"nope"},
	}); err == nil {
		t.Fatal("unknown scheme did not error")
	}
	if _, err := radiobcast.RunSweep(radiobcast.SweepSpec{
		Families: []string{"no-such-family"}, Sizes: []int{8}, Schemes: []string{"b"},
	}); err == nil {
		t.Fatal("unknown family did not error")
	}
}
