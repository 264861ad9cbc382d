// Public-API tests for the radiobcast facade: every registered scheme runs
// and verifies on a grid of graph families, and matches the reference
// engine run for run.
package radiobcast_test

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"radiobcast"
	"radiobcast/internal/graph"
	"radiobcast/internal/radio"
	"radiobcast/internal/radio/radiotest"
)

// builtins is the full set of schemes this repository ships.
var builtins = []string{"b", "back", "barb", "centralized", "colorrobin", "flooding", "gjp", "onebit", "roundrobin"}

func TestRegistryComplete(t *testing.T) {
	var got []string
	for _, name := range radiobcast.SchemeNames() {
		if testOnly(name) {
			continue
		}
		got = append(got, name)
	}
	if !reflect.DeepEqual(got, builtins) {
		t.Fatalf("registered schemes = %v, want %v", got, builtins)
	}
	for _, s := range radiobcast.Schemes() {
		if s.Describe() == "" {
			t.Errorf("scheme %q has no description", s.Name())
		}
	}
	if _, ok := radiobcast.Lookup("no-such-scheme"); ok {
		t.Fatal("Lookup invented a scheme")
	}
}

// TestSchemeMatrix runs every registered scheme across a grid of graph
// families and requires Verify to pass. The flooding and onebit rows are
// restricted to families where a (trivial resp. searched) 1-bit labeling
// exists — one-bit broadcast is not universal.
func TestSchemeMatrix(t *testing.T) {
	type fam struct {
		name string
		n    int
	}
	general := []fam{{"path", 10}, {"cycle", 9}, {"grid", 16}, {"gnp-sparse", 12}, {"complete", 8}}
	matrix := map[string][]fam{
		"b":           general,
		"back":        general,
		"barb":        general,
		"roundrobin":  general,
		"colorrobin":  general,
		"centralized": general,
		"onebit":      {{"path", 8}, {"cycle", 7}, {"star", 9}, {"grid", 9}},
		"flooding":    {{"path", 8}, {"star", 9}, {"complete", 6}},
		// gjp's constructive search succeeds on every shipped family except
		// figure1 (the paper's adversarial example defeats 1-bit labels).
		"gjp": general,
	}
	for _, scheme := range builtins {
		fams, ok := matrix[scheme]
		if !ok {
			t.Fatalf("matrix is missing scheme %q", scheme)
		}
		for _, f := range fams {
			t.Run(scheme+"/"+f.name, func(t *testing.T) {
				net, err := radiobcast.Family(f.name, f.n)
				if err != nil {
					t.Fatal(err)
				}
				out, err := radiobcast.Run(net, scheme, radiobcast.WithMessage("m"))
				if err != nil {
					t.Fatal(err)
				}
				if err := radiobcast.Verify(out); err != nil {
					t.Fatalf("Verify: %v", err)
				}
				if !out.AllInformed {
					t.Fatal("verified outcome claims incomplete broadcast")
				}
				if r := out.InformedRound[out.Source]; r != 0 {
					t.Fatalf("InformedRound[source] = %d, want 0", r)
				}
				if out.Scheme != scheme || out.Mu != "m" {
					t.Fatalf("outcome mislabeled: scheme %q mu %q", out.Scheme, out.Mu)
				}
			})
		}
	}
}

// TestParallelMatchesSequential pins the deprecated WithWorkers option
// to a no-op: runs with WithWorkers(-1) are bit-identical to runs
// without it and to the reference engine. Run under -race this also
// exercises the plans' Stop predicates (the baselines' uninformed
// counters) for data races.
func TestParallelMatchesSequential(t *testing.T) {
	for _, scheme := range []string{"b", "back", "barb", "roundrobin", "colorrobin"} {
		t.Run(scheme, func(t *testing.T) {
			net, err := radiobcast.Family("grid", 64)
			if err != nil {
				t.Fatal(err)
			}
			run := func(opts ...radiobcast.Option) *radiobcast.Outcome {
				t.Helper()
				out, err := radiobcast.Run(net, scheme, append(opts, radiobcast.WithMessage("m"))...)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			ref := run(radiobcast.WithEngine(radiotest.Run))
			for mode, out := range map[string]*radiobcast.Outcome{
				"default":         run(),
				"WithWorkers(-1)": run(radiobcast.WithWorkers(-1)),
			} {
				if !reflect.DeepEqual(ref.Result, out.Result) {
					t.Fatalf("%s: result diverged from the reference engine", mode)
				}
				if !reflect.DeepEqual(ref.InformedRound, out.InformedRound) {
					t.Fatalf("%s: informed rounds differ from the reference engine", mode)
				}
				if err := radiobcast.Verify(out); err != nil {
					t.Fatalf("%s: Verify: %v", mode, err)
				}
			}
		})
	}
}

// TestRunLabeledReusesLabeling labels once with λarb and broadcasts from
// three different sources over the same labeling (the paper's point:
// λarb is source-independent).
func TestRunLabeledReusesLabeling(t *testing.T) {
	net, err := radiobcast.Family("grid", 36)
	if err != nil {
		t.Fatal(err)
	}
	l, err := radiobcast.LabelNetwork(net, "barb")
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []int{0, 17, 35} {
		out, err := radiobcast.RunLabeled(l, radiobcast.WithSource(src), radiobcast.WithMessage("alert"))
		if err != nil {
			t.Fatal(err)
		}
		if err := radiobcast.Verify(out); err != nil {
			t.Fatalf("source %d: %v", src, err)
		}
		if out.Source != src {
			t.Fatalf("outcome source %d, want %d", out.Source, src)
		}
	}
}

// TestLabelingReadsZRFromLabels: a labeling's z and r are read from its
// labels, so a barb labeling assembled by hand, with no field naming its
// coordinator, reports the node labeled 111 as R and runs from it.
func TestLabelingReadsZRFromLabels(t *testing.T) {
	net, err := radiobcast.Family("path", 12)
	if err != nil {
		t.Fatal(err)
	}
	l, err := radiobcast.LabelNetwork(net.At(9), "barb", radiobcast.WithCoordinator(4))
	if err != nil {
		t.Fatal(err)
	}
	if l.Source != 4 || l.Labels[4] != radiobcast.MustParseLabel("111") {
		t.Fatalf("barb labeling anchored at %d labels r=4 %s, want Source 4 and 111", l.Source, l.Labels[4])
	}
	hand := &radiobcast.Labeling{Scheme: "barb", Graph: net.Graph, Labels: l.Labels, Stages: l.Stages}
	if hand.R() != 4 || hand.Z() != l.Z() || hand.Labels[hand.Z()] != radiobcast.MustParseLabel("001") {
		t.Fatalf("hand-built barb labeling: r=%d z=%d, want r=4 and z=%d labeled 001", hand.R(), hand.Z(), l.Z())
	}
	out, err := radiobcast.RunLabeled(hand, radiobcast.WithSource(9))
	if err != nil {
		t.Fatal(err)
	}
	if err := radiobcast.Verify(out); err != nil {
		t.Fatal(err)
	}
	// A b labeling has neither, whatever its labels spell.
	if b := (&radiobcast.Labeling{Scheme: "b", Labels: l.Labels}); b.Z() != -1 || b.R() != -1 {
		t.Fatalf("b labeling reports z=%d r=%d, want -1 -1", b.Z(), b.R())
	}
	// The schemes whose labels depend on no node are anchored at 0.
	for _, scheme := range []string{"roundrobin", "colorrobin", "flooding"} {
		l, err := radiobcast.LabelNetwork(net.At(5), scheme)
		if err != nil {
			t.Fatal(err)
		}
		if l.Source != 0 {
			t.Errorf("%s labeling for source 5 has Source %d, want its anchor 0", scheme, l.Source)
		}
	}
}

// TestProtocolsSurface exercises the Scheme.Plan contract for every
// registered scheme: one fresh protocol per node, and driving them through
// the radio engine directly reproduces the facade run (checked for "b").
func TestProtocolsSurface(t *testing.T) {
	for _, s := range radiobcast.Schemes() {
		t.Run(s.Name(), func(t *testing.T) {
			famName, n := "grid", 16
			if s.Name() == "flooding" || s.Name() == "onebit" {
				famName, n = "path", 8
			}
			net, err := radiobcast.Family(famName, n)
			if err != nil {
				t.Fatal(err)
			}
			l, err := radiobcast.LabelNetwork(net, s.Name())
			if err != nil {
				t.Fatal(err)
			}
			p, err := s.Plan(l, net.Source, "m")
			if err != nil {
				t.Fatal(err)
			}
			if len(p.Protocols) != net.Graph.N() {
				t.Fatalf("%d protocols for %d nodes", len(p.Protocols), net.Graph.N())
			}
		})
	}

	// Driving scheme b's protocols through the engine by hand must match
	// the facade run exactly.
	net, _ := radiobcast.Family("grid", 16)
	b, _ := radiobcast.Lookup("b")
	l, err := radiobcast.LabelNetwork(net, "b")
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.Plan(l, net.Source, "m")
	if err != nil {
		t.Fatal(err)
	}
	res := radio.Run(net.Graph, p.Protocols, radio.Options{
		MaxRounds:       2*net.Graph.N() + 4,
		StopAfterSilent: 3,
	})
	out, err := radiobcast.Run(net, "b", radiobcast.WithMessage("m"))
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTransmissions != out.Result.TotalTransmissions {
		t.Fatalf("hand-driven protocols made %d transmissions, facade %d",
			res.TotalTransmissions, out.Result.TotalTransmissions)
	}
	for v := range res.N() {
		if !slices.Equal(res.Transmits(v), out.Result.Transmits(v)) {
			t.Fatalf("node %d: hand-driven transmit rounds %v differ from the facade run's %v", v, res.Transmits(v), out.Result.Transmits(v))
		}
	}
}

// TestCentralizedSourceOverride reuses a centralized labeling from a
// different source: the scheme must recompute the schedule and the outcome
// must carry the recomputed one, so Verify judges the run against the
// schedule that actually ran.
func TestCentralizedSourceOverride(t *testing.T) {
	net, err := radiobcast.Family("path", 12)
	if err != nil {
		t.Fatal(err)
	}
	l, err := radiobcast.LabelNetwork(net.At(6), "centralized")
	if err != nil {
		t.Fatal(err)
	}
	out, err := radiobcast.RunLabeled(l, radiobcast.WithSource(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := radiobcast.Verify(out); err != nil {
		t.Fatalf("Verify rejected a recomputed-schedule run: %v", err)
	}
	if out.Labeling == l {
		t.Fatal("outcome carries the stale source-6 labeling")
	}
	if out.Labeling.Source != 0 || len(out.Labeling.Schedule) < out.CompletionRound {
		t.Fatalf("outcome labeling not recomputed: source %d, schedule %d rounds, completion %d",
			out.Labeling.Source, len(out.Labeling.Schedule), out.CompletionRound)
	}
}

// TestBaselinesOnStreamedGraph runs roundrobin and colorrobin on a
// network from the streaming generator, which Family uses for gnp members
// of 50,000 nodes and more. The labeling's traversal and graph square are
// the graph's first reads; they used to index an adjacency form such
// graphs never built, and panicked.
func TestBaselinesOnStreamedGraph(t *testing.T) {
	for _, scheme := range []string{"roundrobin", "colorrobin"} {
		net := radiobcast.NewNetwork(graph.StreamGNPConnected(200, 3.0/200, 5))
		out, err := radiobcast.Run(net, scheme)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if err := radiobcast.Verify(out); err != nil || !out.AllInformed {
			t.Fatalf("%s: verify %v, all informed %v", scheme, err, out.AllInformed)
		}
	}
}

// TestFaultInjection drops every transmission of the source: broadcast
// cannot start, and Verify must say so.
func TestFaultInjection(t *testing.T) {
	net, err := radiobcast.Family("path", 8)
	if err != nil {
		t.Fatal(err)
	}
	out, err := radiobcast.Run(net, "b",
		radiobcast.WithFaultSpec(radiobcast.FaultSpec{Model: radiobcast.FaultModelJam, Nodes: []int{0}}))
	if err != nil {
		t.Fatal(err)
	}
	if out.AllInformed {
		t.Fatal("broadcast completed despite the source being jammed")
	}
	if err := radiobcast.Verify(out); err == nil {
		t.Fatal("Verify accepted a jammed broadcast")
	}
}

// TestMaxRoundsTruncation caps every scheme's run below its completion
// bound and expects the cap to hold and a verifiable failure, not a
// crash.
func TestMaxRoundsTruncation(t *testing.T) {
	net, err := radiobcast.Family("path", 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range radiobcast.SchemeNames() {
		t.Run(scheme, func(t *testing.T) {
			out, err := radiobcast.Run(net, scheme, radiobcast.WithMaxRounds(2))
			if err != nil {
				t.Fatal(err)
			}
			if out.Result.Rounds > 2 {
				t.Fatalf("ran %d rounds under WithMaxRounds(2)", out.Result.Rounds)
			}
			if out.AllInformed {
				t.Fatal("12-node path informed in 2 rounds")
			}
			if err := radiobcast.Verify(out); err == nil {
				t.Fatal("Verify accepted a truncated broadcast")
			}
		})
	}
}

// TestTraceAndAnnotate reads a run's trace through the facade and renders
// the Figure 1 style annotations.
func TestTraceAndAnnotate(t *testing.T) {
	out, err := radiobcast.Run(radiobcast.Figure1(), "b")
	if err != nil {
		t.Fatal(err)
	}
	if err := radiobcast.Verify(out); err != nil {
		t.Fatal(err)
	}
	tr := out.Result.Trace()
	// The trace records active rounds only; B is silent after completion.
	if len(tr.Rounds) == 0 || len(tr.Rounds) > out.Result.Rounds {
		t.Fatalf("trace has %d rounds, result ran %d", len(tr.Rounds), out.Result.Rounds)
	}
	if last := tr.Rounds[len(tr.Rounds)-1].Round; last < out.CompletionRound-1 {
		t.Fatalf("trace ends at round %d, before completion round %d", last, out.CompletionRound)
	}
	ann := radiobcast.Annotate(out)
	if !strings.Contains(ann, "{") || !strings.Contains(ann, "(") {
		t.Fatalf("annotations missing transmit/receive sets:\n%s", ann)
	}
}

// TestErrors covers the facade's failure modes.
func TestErrors(t *testing.T) {
	if _, err := radiobcast.Family("klein-bottle", 8); err == nil {
		t.Fatal("unknown family accepted")
	}
	net, _ := radiobcast.Family("path", 4)
	if _, err := radiobcast.Run(net, "dijkstra"); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if _, err := radiobcast.Run(nil, "b"); err == nil {
		t.Fatal("nil network accepted")
	}
	if _, err := radiobcast.Run(net.At(99), "b"); err == nil {
		t.Fatal("out-of-range source accepted")
	}
	net.At(0)
	if _, err := radiobcast.Run(net, "barb", radiobcast.WithCoordinator(-3)); err == nil {
		t.Fatal("out-of-range coordinator accepted")
	}
	// Onebit search must fail honestly when no 1-bit labeling exists:
	// the 4-cycle from an arbitrary node has one (found by search), but
	// a dense random graph may not — use Quick to bound the search.
	if _, err := radiobcast.Run(net, "onebit", radiobcast.WithQuick()); err != nil {
		t.Fatalf("onebit on a 4-path should find a labeling: %v", err)
	}
}

// TestVerifyPartialOutcome: Verify judges an outcome's own fields, so an
// outcome with a part missing is an error, never a panic, for every
// shipped scheme. A part only some schemes read (barb's
// KnowsCompleteRound, the λ stages Lemma 2.8 is checked against) does not
// matter to the others.
func TestVerifyPartialOutcome(t *testing.T) {
	net, err := radiobcast.Family("path", 8)
	if err != nil {
		t.Fatal(err)
	}
	net = net.At(7) // barb's coordinator, node 0, is not the source
	shapes := []struct {
		name  string
		spoil func(*radiobcast.Outcome)
		only  []string // the schemes that read the part; nil for all
	}{
		{"empty", func(o *radiobcast.Outcome) { *o = radiobcast.Outcome{Scheme: o.Scheme} }, nil},
		{"no Result", func(o *radiobcast.Outcome) { o.Result = nil }, nil},
		{"no Labeling", func(o *radiobcast.Outcome) { o.Labeling = nil }, nil},
		{"no Graph and no Labeling", func(o *radiobcast.Outcome) { o.Graph, o.Labeling = nil, nil }, nil},
		{"no InformedRound", func(o *radiobcast.Outcome) { o.InformedRound = nil }, nil},
		{"short InformedRound", func(o *radiobcast.Outcome) { o.InformedRound = o.InformedRound[1:] }, nil},
		{"a CompletionRound past every informed round", func(o *radiobcast.Outcome) { o.CompletionRound++ }, nil},
		{"no KnowsCompleteRound", func(o *radiobcast.Outcome) { o.KnowsCompleteRound = nil }, []string{"barb"}},
		{"a Labeling without Stages", func(o *radiobcast.Outcome) {
			l := *o.Labeling
			l.Stages = nil
			o.Labeling = &l
		}, []string{"b", "back"}},
	}
	for _, scheme := range radiobcast.SchemeNames() {
		if testOnly(scheme) {
			continue
		}
		out, err := radiobcast.Run(net, scheme, radiobcast.WithMessage("m"))
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if err := radiobcast.Verify(out); err != nil {
			t.Fatalf("%s: the whole outcome fails Verify: %v", scheme, err)
		}
		for _, sh := range shapes {
			o := *out
			sh.spoil(&o)
			wantErr := sh.only == nil || slices.Contains(sh.only, scheme)
			what := scheme + ", " + sh.name
			if err := verifyNoPanic(t, what, &o); (err != nil) != wantErr {
				t.Errorf("%s: Verify returns %v, want an error: %t", what, err, wantErr)
			}
		}
	}
	// An incomplete outcome without its Result: flooding collides on an
	// even cycle.
	cycle, err := radiobcast.Family("cycle", 8)
	if err != nil {
		t.Fatal(err)
	}
	out, err := radiobcast.Run(cycle, "flooding")
	if err != nil {
		t.Fatal(err)
	}
	if out.AllInformed {
		t.Fatal("flooding completes on cycle/8")
	}
	out.Result = nil
	if err := verifyNoPanic(t, "incomplete flooding, no Result", out); err == nil {
		t.Error("incomplete flooding, no Result: Verify passes")
	}
	// A b outcome relabeled as back has no ack, so back's Verify fails it.
	out, err = radiobcast.Run(net, "b", radiobcast.WithMessage("m"))
	if err != nil {
		t.Fatal(err)
	}
	out.Scheme = "back"
	if err := radiobcast.Verify(out); err == nil {
		t.Fatal("a b outcome passes back's Verify")
	}
}

// verifyNoPanic is Verify with a panic reported as a test failure (and
// returned as an error).
func verifyNoPanic(t *testing.T, what string, o *radiobcast.Outcome) (err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("%s: Verify panics: %v", what, r)
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return radiobcast.Verify(o)
}

// TestDistinctOnEveryScheme: Labeling.Distinct counts what a map of
// the labels counts, on every registered scheme's labeling of path/64.
// Round robin's labels there are 6-bit identifiers, most of which take
// Distinct's map path; every other scheme's fit its bit set.
func TestDistinctOnEveryScheme(t *testing.T) {
	net, err := radiobcast.Family("path", 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range builtins {
		l, err := radiobcast.LabelNetwork(net, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		seen := map[radiobcast.Label]bool{}
		for _, x := range l.Labels {
			seen[x] = true
		}
		if l.Distinct() != len(seen) {
			t.Errorf("%s: Distinct = %d, map counts %d", name, l.Distinct(), len(seen))
		}
		if name == "roundrobin" && l.Bits() != 6 {
			t.Errorf("roundrobin labels path/64 with %d-bit labels, want 6", l.Bits())
		}
	}
}

// TestLabelingAccessors exercises the public Labeling surface the CLIs
// rely on.
func TestLabelingAccessors(t *testing.T) {
	net, _ := radiobcast.Family("grid", 16)
	l, err := radiobcast.LabelNetwork(net, "back")
	if err != nil {
		t.Fatal(err)
	}
	if l.Bits() != 3 {
		t.Fatalf("λack is a 3-bit scheme, got %d bits", l.Bits())
	}
	if d := l.Distinct(); d < 2 || d > 8 {
		t.Fatalf("distinct labels = %d", d)
	}
	if z := l.Z(); z < 0 || l.Labels[z] != radiobcast.MustParseLabel("001") {
		t.Fatalf("λack labeling's acknowledgement initiator is %d, want the node labeled 001", z)
	}
	if got := len(l.Strings()); got != net.Graph.N() {
		t.Fatalf("Strings() has %d entries for %d nodes", got, net.Graph.N())
	}
	hist := l.Histogram()
	total := 0
	for _, c := range hist {
		total += c
	}
	if total != net.Graph.N() {
		t.Fatalf("histogram counts %d nodes, want %d", total, net.Graph.N())
	}
}
