package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"radiobcast/internal/domset"
	"radiobcast/internal/graph"
)

// The word-parallel stage kernel must be indistinguishable from the
// node-at-a-time oracle in stages_oracle_test.go: same DOM/NEW lists, same
// ℓ, same stall and error, same labels and stay picks — bit for bit, for
// every prune order and both ablations. These differential tests and
// FuzzStagesMatchOracle are the contract that lets the kernel be the only
// stage builder.

// buildModes are the standard construction and the three ablation modes.
var buildModes = []struct {
	name string
	opt  BuildOptions
}{
	{"standard", BuildOptions{}},
	{"restricted", BuildOptions{Restricted: true}},
	{"skip-minimality", BuildOptions{SkipMinimality: true}},
	{"restricted+skip", BuildOptions{Restricted: true, SkipMinimality: true}},
}

// isStandard reports whether opt asks for the standard construction, which
// always completes on a connected graph; only the ablations may stall.
func isStandard(opt BuildOptions) bool {
	return !opt.Restricted && !opt.SkipMinimality
}

// assertStagesIdentical compares the build errors and the full delta
// representation (which determines everything else) plus the metadata.
func assertStagesIdentical(t *testing.T, tag string, got *Stages, gotErr error, want *Stages, wantErr error) {
	t.Helper()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: BuildStages error %v, oracle error %v", tag, gotErr, wantErr)
	}
	if got.L != want.L || got.Stalled != want.Stalled || got.Restricted != want.Restricted || got.NumStored() != want.NumStored() {
		t.Fatalf("%s: BuildStages ℓ=%d stalled=%d restricted=%v stages=%d, oracle ℓ=%d stalled=%d restricted=%v stages=%d",
			tag, got.L, got.Stalled, got.Restricted, got.NumStored(), want.L, want.Stalled, want.Restricted, want.NumStored())
	}
	for i := 1; i <= got.NumStored(); i++ {
		gd, gn := got.Lists(i)
		wd, wn := want.Lists(i)
		if !slices.Equal(gd, wd) {
			t.Fatalf("%s: stage %d DOM lists differ:\nBuildStages %v\noracle      %v", tag, i, gd, wd)
		}
		if !slices.Equal(gn, wn) {
			t.Fatalf("%s: stage %d NEW lists differ:\nBuildStages %v\noracle      %v", tag, i, gn, wn)
		}
	}
}

func assertLabelingsIdentical(t *testing.T, tag string, got, want *Labeling) {
	t.Helper()
	if !reflect.DeepEqual(got.Labels, want.Labels) {
		t.Fatalf("%s: labels differ:\ngot    %v\noracle %v", tag, got.Labels, want.Labels)
	}
	if !reflect.DeepEqual(got.StayPick, want.StayPick) {
		t.Fatalf("%s: stay picks differ:\ngot    %v\noracle %v", tag, got.StayPick, want.StayPick)
	}
	assertStagesIdentical(t, tag, got.Stages, nil, want.Stages, nil)
}

// labelingSchemes pairs each λ-family labeling with its derivation from
// the oracle's stages (the coordinator of λarb is the source).
var labelingSchemes = []struct {
	name  string
	label func(g *graph.Graph, source int, opt BuildOptions) (*Labeling, error)
	ack   bool // extend to λack
	arb   bool // then mark the coordinator 111
}{
	{"lambda", Lambda, false, false},
	{"lambdaack", LambdaAck, true, false},
	{"lambdaarb", LambdaArb, true, true},
}

// oracleLabeling derives a λ-family labeling from the oracle's stages
// through the same labelsFromStages/extendToAck steps the schemes use.
func oracleLabeling(g *graph.Graph, source int, opt BuildOptions, ack, arb bool) (*Labeling, error) {
	st, err := buildStagesOracle(g, source, opt)
	if err != nil {
		return nil, err
	}
	l, err := labelsFromStages(st, graph.NewBitCSR(g.Freeze()))
	if err != nil {
		return nil, err
	}
	if ack {
		if err := extendToAck(l); err != nil {
			return nil, err
		}
	}
	if arb {
		l.Labels[source] = CoordinatorLabel
	}
	return l, nil
}

func testGraphs() map[string]*graph.Graph {
	graphs := map[string]*graph.Graph{"figure1": graph.Figure1()}
	for _, name := range graph.FamilyNames() {
		graphs[name] = graph.Families[name](24)
	}
	return graphs
}

// TestStagesMatchOracle pins BuildStages to the oracle set-for-set across
// every family, prune order, build mode and a spread of sources —
// including stalled ablation builds and the five materialized sets of
// every stage, which exercises the replay cursor against the oracle's
// own construction.
func TestStagesMatchOracle(t *testing.T) {
	for name, g := range testGraphs() {
		for _, mode := range buildModes {
			for _, order := range domset.Orders {
				for _, src := range []int{0, g.N() / 2, g.N() - 1} {
					tag := fmt.Sprintf("%s/%s/%s/src=%d", name, mode.name, order, src)
					opt := mode.opt
					opt.Order = order
					got, gotErr := BuildStages(g, src, opt)
					if gotErr != nil && isStandard(opt) {
						t.Fatalf("%s: %v", tag, gotErr)
					}
					want, wantErr := buildStagesOracle(g, src, opt)
					assertStagesIdentical(t, tag, got, gotErr, want, wantErr)
					for i := 1; i <= got.NumStored(); i++ {
						b, s := got.Stage(i), want.Stage(i)
						if !b.Inf.Equal(s.Inf) || !b.Uninf.Equal(s.Uninf) || !b.Frontier.Equal(s.Frontier) ||
							!b.Dom.Equal(s.Dom) || !b.New.Equal(s.New) {
							t.Fatalf("%s: stage %d sets differ", tag, i)
						}
					}
				}
			}
		}
	}
}

// TestLabelingsMatchOracle pins λ, λack and λarb — labels, stay picks, z
// and r — across the scheme × family × order matrix.
func TestLabelingsMatchOracle(t *testing.T) {
	for gname, g := range testGraphs() {
		for _, s := range labelingSchemes {
			for _, order := range domset.Orders {
				tag := s.name + "/" + gname + "/" + order.String()
				opt := BuildOptions{Order: order}
				got, err := s.label(g, 0, opt)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				want, err := oracleLabeling(g, 0, opt, s.ack, s.arb)
				if err != nil {
					t.Fatalf("%s: oracle: %v", tag, err)
				}
				assertLabelingsIdentical(t, tag, got, want)
			}
		}
	}
}

// TestQuickRandomMatchesOracle drives λ and the oracle over random
// connected G(n,p) graphs with random sources and orders.
func TestQuickRandomMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		n := 2 + int(uint64(seed)%60)
		g := graph.GNPConnected(n, 0.15, seed)
		src := int(uint64(seed) % uint64(n))
		opt := BuildOptions{Order: domset.Orders[uint64(seed)%uint64(len(domset.Orders))]}
		got, err1 := Lambda(g, src, opt)
		want, err2 := oracleLabeling(g, src, opt, false, false)
		if err1 != nil || err2 != nil {
			return false
		}
		return reflect.DeepEqual(got.Labels, want.Labels) &&
			reflect.DeepEqual(got.StayPick, want.StayPick) &&
			got.Stages.L == want.Stages.L
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestBitsetSingleNode pins the n=1 degenerate case against the oracle.
func TestBitsetSingleNode(t *testing.T) {
	g := graph.Complete(1)
	got, err := BuildStages(g, 0, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := buildStagesOracle(g, 0, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	assertStagesIdentical(t, "K1", got, nil, want, nil)
	if got.L != 1 {
		t.Fatalf("ℓ = %d, want 1", got.L)
	}
}

// decodeStagesCase decodes one FuzzStagesMatchOracle input. Byte 0 sets
// n = 1 + b%48; byte 1 picks the source; byte 2 picks the prune order
// (bits 0–1), Restricted (bit 2) and SkipMinimality (bit 3). The
// remaining bytes are edge pairs; components left over are chained
// together, so every input decodes to a connected graph.
func decodeStagesCase(data []byte) (g *graph.Graph, source int, opt BuildOptions) {
	var hdr [3]byte
	copy(hdr[:], data)
	n := 1 + int(hdr[0])%48
	g = graph.New(n)
	for i := len(hdr); i+1 < len(data); i += 2 {
		if u, v := int(data[i])%n, int(data[i+1])%n; u != v {
			g.AddEdge(u, v)
		}
	}
	comps := g.ConnectedComponents()
	for i := 1; i < len(comps); i++ {
		g.AddEdge(comps[i-1][0], comps[i][0])
	}
	opt = BuildOptions{
		Order:          domset.Orders[hdr[2]%4],
		Restricted:     hdr[2]&4 != 0,
		SkipMinimality: hdr[2]&8 != 0,
	}
	return g, int(hdr[1]) % n, opt
}

// FuzzStagesMatchOracle checks BuildStages against the oracle on arbitrary
// connected graphs in every mode, and — when a standard build succeeds —
// the §2.1 invariants and the three λ-family labelings derived from it.
func FuzzStagesMatchOracle(f *testing.F) {
	seeds := testGraphs()
	seeds["C4"] = graph.Cycle(4)
	seeds["C6"] = graph.Cycle(6)
	seeds["K2,3"] = graph.CompleteBipartite(2, 3)
	seeds["P3"] = graph.Path(3)
	seeds["grid3x3"] = graph.Grid(3, 3)
	for _, g := range seeds {
		for mode := byte(0); mode < 16; mode += 4 {
			data := []byte{byte(g.N() - 1), 0, mode}
			for _, e := range g.Edges() {
				data = append(data, byte(e[0]), byte(e[1]))
			}
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, src, opt := decodeStagesCase(data)
		got, gotErr := BuildStages(g, src, opt)
		if gotErr != nil && isStandard(opt) {
			t.Fatal(gotErr)
		}
		want, wantErr := buildStagesOracle(g, src, opt)
		assertStagesIdentical(t, "fuzz", got, gotErr, want, wantErr)
		if !isStandard(opt) {
			return
		}
		if err := CheckStageInvariants(got); err != nil {
			t.Fatal(err)
		}
		for _, s := range labelingSchemes {
			gotL, err := s.label(g, src, opt)
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			wantL, err := oracleLabeling(g, src, opt, s.ack, s.arb)
			if err != nil {
				t.Fatalf("%s: oracle: %v", s.name, err)
			}
			assertLabelingsIdentical(t, s.name, gotL, wantL)
		}
	})
}
