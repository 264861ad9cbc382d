// Test schemes. hookScheme instruments a real scheme with test-observable
// Label/Plan hooks; slotScheme is written against the public API alone,
// as a scheme outside this package would be. The facade registry is
// global and append-only, so each name is registered once at package init
// and tests install the hooks they need; tests in this package do not run
// in parallel.
package radiobcast_test

import (
	"context"
	"fmt"
	"math/bits"
	"sync/atomic"
	"testing"

	"radiobcast"
)

type hookScheme struct {
	radiobcast.Scheme
	name    string
	labels  atomic.Int64                           // Label invocations
	plans   atomic.Int64                           // Plan invocations, one per run
	onPlan  atomic.Pointer[func(*radiobcast.Plan)] // may edit the plan
	onLabel atomic.Pointer[func() error]           // a non-nil error fails the Label call
}

func (h *hookScheme) Name() string { return h.name }

func (h *hookScheme) Label(g *radiobcast.Graph, anchor int, cfg *radiobcast.Config) (*radiobcast.Labeling, error) {
	h.labels.Add(1)
	if f := h.onLabel.Load(); f != nil {
		if err := (*f)(); err != nil {
			return nil, err
		}
	}
	l, err := h.Scheme.Label(g, anchor, cfg)
	if l != nil {
		l.Scheme = h.name
	}
	return l, err
}

func (h *hookScheme) Plan(l *radiobcast.Labeling, source int, mu string) (radiobcast.Plan, error) {
	h.plans.Add(1)
	p, err := h.Scheme.Plan(l, source, mu)
	if f := h.onPlan.Load(); f != nil {
		(*f)(&p)
	}
	return p, err
}

// reset clears hooks and counters between tests.
func (h *hookScheme) reset() {
	h.onPlan.Store(nil)
	h.onLabel.Store(nil)
	h.labels.Store(0)
	h.plans.Store(0)
}

var hookB = func() *hookScheme {
	inner, ok := radiobcast.Lookup("b")
	if !ok {
		panic("scheme b not registered")
	}
	h := &hookScheme{Scheme: inner, name: "hook-b"}
	radiobcast.Register(h)
	return h
}()

func init() { radiobcast.Register(slotScheme{}) }

// testOnly reports whether a registered scheme is one of this file's test
// schemes rather than one the repository ships.
func testOnly(name string) bool { return name == "hook-b" || name == "test-slot" }

// slotScheme labels node v with v in ⌈log₂ n⌉ bits, its slot in a period
// of 2^bits rounds; an informed node transmits µ in its own slot of every
// period. No two nodes share a slot, so no reception ever collides.
type slotScheme struct{}

func (slotScheme) Name() string { return "test-slot" }

func (slotScheme) Describe() string { return "test scheme: one transmission slot per node" }

// Anchor is 0: the slots depend on no node.
func (slotScheme) Anchor(int, int) int { return 0 }

func (slotScheme) Label(g *radiobcast.Graph, anchor int, _ *radiobcast.Config) (*radiobcast.Labeling, error) {
	w := max(1, bits.Len(uint(g.N()-1)))
	labels := make([]radiobcast.Label, g.N())
	for v := range labels {
		l, err := radiobcast.ParseLabel(fmt.Sprintf("%0*b", w, v))
		if err != nil {
			return nil, err
		}
		labels[v] = l
	}
	return &radiobcast.Labeling{Scheme: "test-slot", Graph: g, Source: anchor, Labels: labels}, nil
}

func (slotScheme) Plan(l *radiobcast.Labeling, source int, mu string) (radiobcast.Plan, error) {
	n := l.Graph.N()
	if len(l.Labels) != n {
		return radiobcast.Plan{}, fmt.Errorf("test-slot: %d labels for %d nodes", len(l.Labels), n)
	}
	nodes := make([]slotNode, n)
	ps := make([]radiobcast.Protocol, n)
	for v, lab := range l.Labels {
		nodes[v].period = 1 << lab.Len()
		for i := range lab.Len() {
			nodes[v].slot <<= 1
			if lab.Bit(i) {
				nodes[v].slot |= 1
			}
		}
		ps[v] = &nodes[v]
	}
	nodes[source].mu, nodes[source].informed = mu, true
	period := nodes[0].period
	return radiobcast.Plan{
		Protocols: ps,
		MaxRounds: period * (n + 1),
		Stop: func(int) bool {
			for v := range nodes {
				if !nodes[v].informed {
					return false
				}
			}
			return true
		},
	}, nil
}

func (slotScheme) Verify(out *radiobcast.Outcome) error {
	if !out.AllInformed {
		return fmt.Errorf("test-slot: broadcast incomplete after %d rounds", out.Result.Rounds)
	}
	for v, c := range out.Result.Collisions {
		if c > 0 {
			return fmt.Errorf("test-slot: node %d observed %d collision rounds", v, c)
		}
	}
	return nil
}

// slotNode is slotScheme's protocol.
type slotNode struct {
	slot, period, round int
	informed            bool
	mu                  string
}

func (p *slotNode) Step(rcv, out *radiobcast.Message) bool {
	p.round++
	if rcv != nil && !p.informed {
		p.mu, p.informed = rcv.Payload, true
	}
	if p.informed && (p.round-1)%p.period == p.slot {
		*out = radiobcast.Message{Payload: p.mu}
		return true
	}
	return false
}

// TestSchemeFromScratch runs test-slot, a scheme written against the
// public API alone, through every entry point that runs a scheme. It has
// no Assemble: the facade reads who was informed for every scheme, so
// protocols and bounds are all an outside scheme's Plan needs.
func TestSchemeFromScratch(t *testing.T) {
	ctx := context.Background()
	net, err := radiobcast.Family("grid", 16)
	if err != nil {
		t.Fatal(err)
	}
	check := func(how string, out *radiobcast.Outcome, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", how, err)
		}
		if err := radiobcast.Verify(out); err != nil {
			t.Fatalf("%s: %v", how, err)
		}
		if out.Scheme != "test-slot" || out.Mu != "m" || out.Labeling == nil || out.Result == nil ||
			out.Coverage != 1 || out.Degraded != radiobcast.DegradedNone {
			t.Fatalf("%s: outcome %+v lacks the fields every run fills", how, out)
		}
	}
	out, err := radiobcast.Run(net, "test-slot", radiobcast.WithMessage("m"))
	check("Run", out, err)
	again, err := radiobcast.RunLabeled(out.Labeling, radiobcast.WithMessage("m"), radiobcast.WithSource(7))
	check("RunLabeled", again, err)
	if again.Source != 7 || again.InformedRound[0] == 0 {
		t.Fatalf("RunLabeled from source 7 ran from %d", again.Source)
	}

	sess := radiobcast.NewSession()
	defer sess.Close(ctx)
	out, err = sess.Run(ctx, net, "test-slot", radiobcast.WithMessage("m"))
	check("Session.Run", out, err)
	spec := radiobcast.SweepSpec{
		Families: []string{"path", "grid"}, Sizes: []int{16}, Schemes: []string{"test-slot"},
		Sources: []int{0, 5}, Mu: "m",
	}
	cells := 0
	for cell, err := range sess.Sweep(ctx, spec) {
		if err != nil {
			t.Fatal(err)
		}
		check("Session.Sweep "+cell.Cell.Family, cell.Outcome, cell.Err)
		if !cell.Verified {
			t.Fatalf("Session.Sweep %s: cell not verified", cell.Cell.Family)
		}
		cells++
	}
	if cells != 4 {
		t.Fatalf("sweep yielded %d cells, want 4", cells)
	}
}

// TestMalformedPlan: a plan the engine cannot run, as a scheme written
// outside the package may make, is an error, not a panic in the engine.
func TestMalformedPlan(t *testing.T) {
	hookB.reset()
	defer hookB.reset()
	net := figNet(t)
	for name, spoil := range map[string]func(*radiobcast.Plan){
		"short":     func(p *radiobcast.Plan) { p.Protocols = p.Protocols[1:] },
		"unbounded": func(p *radiobcast.Plan) { p.MaxRounds = 0 },
	} {
		hookB.onPlan.Store(&spoil)
		if out, err := radiobcast.Run(net, "hook-b"); err == nil || out != nil {
			t.Errorf("%s plan: outcome %t, err %v; want an error", name, out != nil, err)
		}
	}
}

// TestAssembleRunsBeforeCoverage pins the Assemble contract: a plan's
// Assemble receives the outcome the facade built, who was informed
// included, and Coverage, Degraded and Verify judge what it leaves there.
// Here hook-b's Assemble runs b's own, which releases the slab, and then
// forgets that node 1 was informed.
func TestAssembleRunsBeforeCoverage(t *testing.T) {
	hookB.reset()
	defer hookB.reset()
	forget := func(p *radiobcast.Plan) {
		own := p.Assemble
		p.Assemble = func(out *radiobcast.Outcome) {
			own(out)
			out.InformedRound[1] = 0
			out.AllInformed = false
		}
	}
	hookB.onPlan.Store(&forget)
	out, err := radiobcast.Run(figNet(t), "hook-b", radiobcast.WithMessage("m"))
	if err != nil {
		t.Fatal(err)
	}
	if out.Source == 1 || out.Coverage >= 1 || out.Degraded == radiobcast.DegradedNone {
		t.Fatalf("coverage %v, degraded %q after Assemble dropped node 1", out.Coverage, out.Degraded)
	}
	if err := radiobcast.Verify(out); err == nil {
		t.Fatal("Verify passes an outcome whose Assemble dropped node 1")
	}
}
