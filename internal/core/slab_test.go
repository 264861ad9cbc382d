package core

import (
	"testing"

	"radiobcast/internal/graph"
	"radiobcast/internal/radio"
)

// checkSlabReuse runs a first plan's protocols to the end, releases them
// and checks that their slab holds only zero nodes, so no payload string;
// then it takes a second plan's protocols until they reuse that slab and
// checks them against want, a fresh node per node. A sync.Pool may drop
// what it is given (at a GC, and at random under the race detector), so
// it retries with new slabs.
func checkSlabReuse[T comparable](t *testing.T, g *graph.Graph, first, second func() ([]radio.Protocol, func()), want []T) {
	t.Helper()
	var zero T
	for range 100 {
		ps, release := first()
		radio.Run(g, ps, radio.Options{MaxRounds: 40 * g.N()})
		release()
		for v, p := range ps {
			if *any(p).(*T) != zero {
				t.Fatalf("released slab keeps node %d: %+v", v, *any(p).(*T))
			}
		}
		again, release := second()
		if again[0] != ps[0] {
			release()
			continue
		}
		for v, p := range again {
			if got := *any(p).(*T); got != want[v] {
				t.Fatalf("reused slab's node %d is %+v, want %+v", v, got, want[v])
			}
		}
		release()
		return
	}
	t.Fatal("no slab was reused in 100 attempts")
}

// TestSlabReuse pins the slab pool's contract: a released slab holds no
// payload string, and a reused slab is fully reinitialized. A B slab is
// reused for Back from another source with another µ, and a Barb slab
// for another source and µ, each after a complete run.
func TestSlabReuse(t *testing.T) {
	g := graph.Figure1()
	n := g.N()
	t.Run("ack", func(t *testing.T) {
		l, err := LambdaAck(g, 0, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		mu := "second"
		want := make([]AckNode, n)
		for v, lab := range l.Labels {
			var src *string
			if v == n-1 {
				src = &mu
			}
			want[v] = *newAckNode(lab, src, backSpec)
		}
		checkSlabReuse(t, g,
			func() ([]radio.Protocol, func()) { return NewBProtocols(l.Labels, 0, "first") },
			func() ([]radio.Protocol, func()) { return NewBackProtocols(l.Labels, n-1, mu) },
			want)
	})
	t.Run("barb", func(t *testing.T) {
		l, err := LambdaArb(g, 0, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want := make([]AlgBarb, n)
		for v, lab := range l.Labels {
			a := &want[v]
			a.isR = lab == CoordinatorLabel
			for i := range a.p {
				a.p[i] = ackMachine{label: lab, spec: barbSpecs[i], origin: a.isR}
			}
		}
		want[n-1].mu, want[n-1].isMuSource = "second", true
		checkSlabReuse(t, g,
			func() ([]radio.Protocol, func()) { return NewBarbProtocols(l.Labels, 0, "first") },
			func() ([]radio.Protocol, func()) { return NewBarbProtocols(l.Labels, n-1, "second") },
			want)
	})
}
