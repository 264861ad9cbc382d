package radiobcast_test

import (
	"errors"
	"math/rand"
	"testing"

	"radiobcast"
	"radiobcast/internal/graph"
)

// FuzzSchemes is the registry's property fuzz: on a small random connected
// graph (2 ≤ n ≤ 12) and source, every registered scheme labels, runs and
// passes Verify. Only the searched schemes may find no labeling, and only
// flooding, which is not universal, may fail Verify. EXPERIMENTS.md runs
// none of flooding's, onebit's or gjp's plans, so beyond TestSchemeMatrix
// this is their end-to-end check.
//
// Every run must also be cut-consistent: rerun with WithMaxRounds(c), it
// informs exactly the nodes the uncut run informed by round c, in the
// same rounds, and its AckRound follows the same rule (see checkCut). The
// check runs clean and under one fault the input picks: crash without
// memory loss, rate or duty. A crash that wipes a reception is left out:
// a reception in round c that a crash in round c+1 would wipe is kept by
// the cut run, which ends before the crash.
func FuzzSchemes(f *testing.F) {
	// cut 0 cuts each run at its completion round.
	f.Add(uint8(4), uint8(0), int64(1), uint8(0), uint16(0), uint8(0))
	f.Add(uint8(12), uint8(5), int64(7), uint8(90), uint16(0), uint8(1))
	f.Add(uint8(9), uint8(8), int64(3), uint8(255), uint16(0), uint8(2))
	f.Add(uint8(2), uint8(1), int64(0), uint8(128), uint16(0), uint8(0))
	f.Fuzz(func(t *testing.T, size, src uint8, seed int64, density uint8, cut uint16, fault uint8) {
		n := 2 + int(size)%11
		r := rand.New(rand.NewSource(seed))
		g := graph.New(n)
		for v := 1; v < n; v++ {
			g.AddEdge(v, r.Intn(v)) // a random spanning tree keeps g connected
		}
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Intn(256) < int(density)/2 {
					g.AddEdge(u, v)
				}
			}
		}
		cutFaults := []radiobcast.FaultSpec{
			{Model: radiobcast.FaultModelCrash, Rate: 0.1, Down: 2, Seed: seed},
			{Model: radiobcast.FaultModelRate, Rate: 0.3, Seed: seed},
			{Model: radiobcast.FaultModelDuty, Period: 4, On: 3, Seed: seed},
		}
		spec := radiobcast.WithFaultSpec(cutFaults[int(fault)%len(cutFaults)])
		net := radiobcast.NewNetwork(g).At(int(src) % n)
		for _, scheme := range radiobcast.SchemeNames() {
			out, err := radiobcast.Run(net, scheme, radiobcast.WithMessage("m"))
			if errors.Is(err, radiobcast.ErrNoLabeling) && (scheme == "gjp" || scheme == "onebit") {
				continue
			}
			if err != nil {
				t.Fatalf("%s on %v from %d: %v", scheme, g, net.Source, err)
			}
			if err := radiobcast.Verify(out); err != nil {
				if scheme != "flooding" {
					t.Fatalf("%s on %v from %d: %v", scheme, g, net.Source, err)
				}
			} else if !out.AllInformed || out.Coverage != 1 {
				t.Fatalf("%s on %v from %d: verified outcome informs %.2f of the nodes", scheme, g, net.Source, out.Coverage)
			}
			checkCut(t, out, int(cut))
			checkCut(t, runOn(t, out.Labeling, spec, radiobcast.WithSource(out.Source)), int(cut), spec)
		}
	})
}

// checkCut reruns full's labeling from full's source with opts, cut at
// round c: the uncut run's completion round shifted by shift and wrapped
// into [1, full.Result.Rounds]. The source is explicit because a
// labeling's Source is its anchor, which for barb is its coordinator and
// for roundrobin, colorrobin and flooding is 0. The cut run must inform every node the uncut
// run informed by round c, in the same round, and no other; its AckRound
// is the uncut one if that is at most c, else 0.
func checkCut(t *testing.T, full *radiobcast.Outcome, shift int, opts ...radiobcast.Option) {
	t.Helper()
	rounds := full.Result.Rounds
	c := 1 + ((full.CompletionRound-1+shift)%rounds+rounds)%rounds
	cut := runOn(t, full.Labeling, append(opts, radiobcast.WithSource(full.Source), radiobcast.WithMaxRounds(c))...)
	upTo := func(r int) int {
		if r > c {
			return 0
		}
		return r
	}
	for v, r := range full.InformedRound {
		if got := cut.InformedRound[v]; got != upTo(r) {
			t.Fatalf("%s on %v cut at round %d of %d: node %d informed in round %d, uncut run says %d",
				full.Scheme, full.Graph, c, rounds, v, got, r)
		}
	}
	if cut.AckRound != upTo(full.AckRound) {
		t.Fatalf("%s on %v cut at round %d of %d: ack round %d, uncut run says %d",
			full.Scheme, full.Graph, c, rounds, cut.AckRound, full.AckRound)
	}
}

// runOn runs one broadcast of "m" over labeling l.
func runOn(t *testing.T, l *radiobcast.Labeling, opts ...radiobcast.Option) *radiobcast.Outcome {
	t.Helper()
	out, err := radiobcast.RunLabeled(l, append(opts, radiobcast.WithMessage("m"))...)
	if err != nil {
		t.Fatalf("%s on %v: %v", l.Scheme, l.Graph, err)
	}
	return out
}
