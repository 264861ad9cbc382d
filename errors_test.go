// Tests for the facade's typed error contract: every impossible-setup
// failure is matchable with errors.Is against the package sentinels and
// carries its specifics for errors.As.
package radiobcast_test

import (
	"context"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"radiobcast"
)

func figNet(t *testing.T) *radiobcast.Network {
	t.Helper()
	net, err := radiobcast.Family("grid", 16)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestErrNilNetwork(t *testing.T) {
	for name, call := range map[string]func() error{
		"Run":          func() error { _, err := radiobcast.Run(nil, "b"); return err },
		"LabelNetwork": func() error { _, err := radiobcast.LabelNetwork(nil, "b"); return err },
		"nil graph":    func() error { _, err := radiobcast.Run(&radiobcast.Network{}, "b"); return err },
	} {
		if err := call(); !errors.Is(err, radiobcast.ErrNilNetwork) {
			t.Fatalf("%s: err = %v, want ErrNilNetwork", name, err)
		}
	}
}

func TestErrUnknownScheme(t *testing.T) {
	net := figNet(t)
	_, err := radiobcast.Run(net, "no-such-scheme")
	if !errors.Is(err, radiobcast.ErrUnknownScheme) {
		t.Fatalf("err = %v, want ErrUnknownScheme", err)
	}
	var us *radiobcast.UnknownSchemeError
	if !errors.As(err, &us) || us.Name != "no-such-scheme" || len(us.Registered) == 0 {
		t.Fatalf("errors.As carrier = %+v", us)
	}
	if _, err := radiobcast.LabelNetwork(net, "nope"); !errors.Is(err, radiobcast.ErrUnknownScheme) {
		t.Fatalf("LabelNetwork err = %v, want ErrUnknownScheme", err)
	}
	if err := radiobcast.Verify(&radiobcast.Outcome{Scheme: "nope"}); !errors.Is(err, radiobcast.ErrUnknownScheme) {
		t.Fatalf("Verify err = %v, want ErrUnknownScheme", err)
	}
	if _, err := radiobcast.RunSweep(radiobcast.SweepSpec{
		Families: []string{"path"}, Sizes: []int{8}, Schemes: []string{"nope"},
	}); !errors.Is(err, radiobcast.ErrUnknownScheme) {
		t.Fatalf("RunSweep err = %v, want ErrUnknownScheme", err)
	}
}

func TestErrNodeOutOfRange(t *testing.T) {
	net := figNet(t)
	_, err := radiobcast.Run(net, "b", radiobcast.WithSource(99))
	if !errors.Is(err, radiobcast.ErrNodeOutOfRange) {
		t.Fatalf("err = %v, want ErrNodeOutOfRange", err)
	}
	var oor *radiobcast.NodeOutOfRangeError
	if !errors.As(err, &oor) || oor.Role != "source" || oor.Node != 99 || oor.N != 16 {
		t.Fatalf("errors.As carrier = %+v", oor)
	}
	_, err = radiobcast.Run(net, "barb", radiobcast.WithCoordinator(-3))
	if !errors.As(err, &oor) || oor.Role != "coordinator" {
		t.Fatalf("coordinator err = %v", err)
	}
}

// TestErrLabelingMismatch pins the satellite fix: RunLabeled rejects nil
// or graphless labelings with a typed error instead of panicking
// downstream.
func TestErrLabelingMismatch(t *testing.T) {
	if _, err := radiobcast.RunLabeled(nil); !errors.Is(err, radiobcast.ErrLabelingMismatch) {
		t.Fatalf("nil labeling: err = %v, want ErrLabelingMismatch", err)
	}
	if _, err := radiobcast.RunLabeled(&radiobcast.Labeling{Scheme: "b"}); !errors.Is(err, radiobcast.ErrLabelingMismatch) {
		t.Fatalf("graphless labeling: err = %v, want ErrLabelingMismatch", err)
	}
	net := figNet(t)
	l, err := radiobcast.LabelNetwork(net, "b")
	if err != nil {
		t.Fatal(err)
	}
	bad := *l
	bad.Labels = bad.Labels[:3] // wrong cardinality
	_, err = radiobcast.RunLabeled(&bad)
	if !errors.Is(err, radiobcast.ErrLabelingMismatch) {
		t.Fatalf("mis-sized labels: err = %v, want ErrLabelingMismatch", err)
	}
	var lm *radiobcast.LabelingMismatchError
	if !errors.As(err, &lm) || lm.Reason == "" {
		t.Fatalf("errors.As carrier = %+v", lm)
	}
	// A labeling with neither labels nor a schedule cannot drive any
	// protocol — e.g. a wire blob whose flags were legitimately empty.
	empty := &radiobcast.Labeling{Scheme: "b", Graph: net.Graph}
	if _, err := radiobcast.RunLabeled(empty); !errors.Is(err, radiobcast.ErrLabelingMismatch) {
		t.Fatalf("label-free labeling: err = %v, want ErrLabelingMismatch", err)
	}
	// The cross case: a schedule-only labeling stamped with a label
	// scheme's name must error, not panic in the engine.
	for _, scheme := range []string{"b", "back", "barb", "roundrobin", "colorrobin", "flooding", "onebit", "gjp"} {
		cross := &radiobcast.Labeling{Scheme: scheme, Graph: net.Graph, Schedule: [][]int{{0}}}
		if _, err := radiobcast.RunLabeled(cross); !errors.Is(err, radiobcast.ErrLabelingMismatch) {
			t.Fatalf("schedule-only labeling under scheme %s: err = %v, want ErrLabelingMismatch", scheme, err)
		}
	}
	// A valid labeling still runs.
	if _, err := radiobcast.RunLabeled(l, radiobcast.WithMessage("m")); err != nil {
		t.Fatalf("valid labeling rejected: %v", err)
	}
}

// TestErrNoLabeling pins the searched schemes' failure on Figure 1, which
// no 1-bit labeling serves under either protocol: a typed error, in
// direct labeling and in a sweep cell alike.
func TestErrNoLabeling(t *testing.T) {
	for _, scheme := range []string{"gjp", "onebit"} {
		_, err := radiobcast.LabelNetwork(radiobcast.Figure1(), scheme, radiobcast.WithQuick())
		if !errors.Is(err, radiobcast.ErrNoLabeling) {
			t.Fatalf("%s on figure1: err = %v, want ErrNoLabeling", scheme, err)
		}
	}
	cells, err := radiobcast.RunSweep(radiobcast.SweepSpec{
		Families: []string{"figure1"}, Sizes: []int{13}, Schemes: []string{"gjp"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || !errors.Is(cells[0].Err, radiobcast.ErrNoLabeling) {
		t.Fatalf("sweep cells = %+v, want one cell failing with ErrNoLabeling", cells)
	}
}

// sentinelCodes is the expected sentinel → code table, maintained by hand
// and checked for completeness against errors.go itself below. The code
// strings are wire API (the daemon's JSON error bodies); changing one
// breaks deployed clients, so these literals are deliberately duplicated
// from errors.go rather than referenced.
var sentinelCodes = map[string]struct {
	err  error
	code string
}{
	"ErrUnknownScheme":    {radiobcast.ErrUnknownScheme, "unknown_scheme"},
	"ErrNodeOutOfRange":   {radiobcast.ErrNodeOutOfRange, "node_out_of_range"},
	"ErrNilNetwork":       {radiobcast.ErrNilNetwork, "nil_network"},
	"ErrLabelingMismatch": {radiobcast.ErrLabelingMismatch, "labeling_mismatch"},
	"ErrSessionClosed":    {radiobcast.ErrSessionClosed, "session_closed"},
	"ErrBadFaultSpec":     {radiobcast.ErrBadFaultSpec, "bad_fault_spec"},
	"ErrNoLabeling":       {radiobcast.ErrNoLabeling, "no_labeling"},
}

// TestErrorCode checks the mapping itself: every sentinel (and anything
// wrapping it) resolves to its code, the codes are pairwise distinct, and
// non-facade errors resolve to nothing.
func TestErrorCode(t *testing.T) {
	seen := map[string]string{}
	for name, sc := range sentinelCodes {
		code, ok := radiobcast.ErrorCode(sc.err)
		if !ok || code != sc.code {
			t.Errorf("ErrorCode(%s) = %q, %v; want %q, true", name, code, ok, sc.code)
		}
		// Wrapped sentinels (how they actually escape the facade) map too.
		code, ok = radiobcast.ErrorCode(fmt.Errorf("context: %w", sc.err))
		if !ok || code != sc.code {
			t.Errorf("ErrorCode(wrapped %s) = %q, %v; want %q, true", name, code, ok, sc.code)
		}
		if prev, dup := seen[sc.code]; dup {
			t.Errorf("code %q assigned to both %s and %s", sc.code, prev, name)
		}
		seen[sc.code] = name
	}
	for _, bad := range []error{nil, errors.New("unrelated"), context.Canceled} {
		if code, ok := radiobcast.ErrorCode(bad); ok {
			t.Errorf("ErrorCode(%v) = %q, true; want no code", bad, code)
		}
	}
}

// TestErrorCodeExhaustive parses errors.go and asserts that every
// exported Err* sentinel declared there appears in sentinelCodes — so a
// future sentinel added without a stable code (or without extending this
// test) fails here instead of making the daemon invent an ad-hoc code at
// serving time.
func TestErrorCodeExhaustive(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "errors.go", nil, 0)
	if err != nil {
		t.Fatalf("parse errors.go: %v", err)
	}
	var declared []string
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, name := range vs.Names {
				if strings.HasPrefix(name.Name, "Err") && ast.IsExported(name.Name) {
					declared = append(declared, name.Name)
				}
			}
		}
	}
	if len(declared) == 0 {
		t.Fatal("found no Err* sentinels in errors.go — did the file move?")
	}
	for _, name := range declared {
		if _, ok := sentinelCodes[name]; !ok {
			t.Errorf("sentinel %s declared in errors.go has no entry in sentinelCodes (add a stable code and test it)", name)
		}
	}
	if len(declared) != len(sentinelCodes) {
		t.Errorf("errors.go declares %d sentinels %v, test table has %d — keep them in sync", len(declared), declared, len(sentinelCodes))
	}
}

// TestErrSessionClosed pins the drain contract: a closed session rejects
// every entry point with the sentinel, and Close waits for in-flight work.
func TestErrSessionClosed(t *testing.T) {
	net := figNet(t)
	sess := radiobcast.NewSession()
	l, err := sess.Label(context.Background(), net, "b")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := sess.Run(context.Background(), net, "b"); !errors.Is(err, radiobcast.ErrSessionClosed) {
		t.Fatalf("Run after Close: err = %v, want ErrSessionClosed", err)
	}
	if _, err := sess.Label(context.Background(), net, "b"); !errors.Is(err, radiobcast.ErrSessionClosed) {
		t.Fatalf("Label after Close: err = %v, want ErrSessionClosed", err)
	}
	if _, err := sess.RunLabeled(context.Background(), l); !errors.Is(err, radiobcast.ErrSessionClosed) {
		t.Fatalf("RunLabeled after Close: err = %v, want ErrSessionClosed", err)
	}
	for _, sweepErr := range collectSweepErrs(sess) {
		if !errors.Is(sweepErr, radiobcast.ErrSessionClosed) {
			t.Fatalf("Sweep after Close: err = %v, want ErrSessionClosed", sweepErr)
		}
	}
	// Closing again is safe.
	if err := sess.Close(context.Background()); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func collectSweepErrs(sess *radiobcast.Session) []error {
	var errs []error
	spec := radiobcast.SweepSpec{Families: []string{"path"}, Sizes: []int{8}, Schemes: []string{"b"}}
	for _, err := range sess.Sweep(context.Background(), spec) {
		errs = append(errs, err)
	}
	return errs
}
