package core

import (
	"reflect"
	"testing"
	"testing/quick"

	"radiobcast/internal/graph"
	"radiobcast/internal/radio"
)

// Differential tests: the paper's correctness proofs hinge on three
// executions sharing one transmission schedule — B, the µ/stay prefix of
// Back (Lemma 2.8 applies to both), and each broadcast phase of Barb.
// These tests compare the schedules event by event.

// dataStaySchedule extracts the rounds of µ and "stay" transmissions.
func dataStaySchedule(g *graph.Graph, ps []radio.Protocol, maxRounds int) [][]int {
	tr := &radio.Trace{}
	radio.Run(g, ps, radio.Options{MaxRounds: maxRounds, StopAfterSilent: 3, Trace: tr})
	out := make([][]int, g.N())
	for _, round := range tr.Rounds {
		for _, tx := range round.Transmitters {
			if tx.Msg.Kind == radio.KindData || tx.Msg.Kind == radio.KindStay {
				out[tx.Node] = append(out[tx.Node], round.Round)
			}
		}
	}
	return out
}

func TestBackScheduleEqualsB(t *testing.T) {
	// The broadcast prefix of Back must transmit µ and "stay" in exactly
	// the rounds B does (the ack chain then runs after round 2ℓ−3).
	f := func(seed int64) bool {
		n := 2 + int(uint64(seed)%40)
		g := graph.GNPConnected(n, 0.2, seed)
		src := int(uint64(seed) % uint64(n))
		l, err := LambdaAck(g, src, BuildOptions{})
		if err != nil {
			return false
		}
		bPs, _ := NewBProtocols(l.Labels, src, "m")
		bSched := dataStaySchedule(g, bPs, 2*n+4)
		backPs, _ := NewBackProtocols(l.Labels, src, "m")
		backSched := dataStaySchedule(g, backPs, 3*n+6)
		cutoff := 2*l.Stages.L - 3
		for v := 0; v < n; v++ {
			// Back's schedule, truncated to the broadcast window, must
			// equal B's schedule (plus possibly z's round-(2ℓ−2) ack which
			// dataStaySchedule already excludes by kind).
			var trimmed []int
			for _, r := range backSched[v] {
				if r <= cutoff {
					trimmed = append(trimmed, r)
				}
			}
			if !reflect.DeepEqual(trimmed, bSched[v]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBarbPhasesShareSchedule(t *testing.T) {
	// Barb's phase-1 (initialize) and phase-3 (data) broadcasts run the
	// same labels from the same origin, so each node's reception offset
	// from phase start must be identical — this is what makes the T − t_v
	// completion wait land every node on the same round.
	g := graph.Figure1()
	l, err := LambdaArb(g, 0, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := runArbitraryLabeled(g, l, 5, "m")
	if err != nil {
		t.Fatal(err)
	}
	if err := out.verifyArbitrary("m"); err != nil {
		t.Fatal(err)
	}
	// Phase-1 reception offsets (t_v) from the init receptions.
	initAt := make([]int, g.N())
	dataAt := make([]int, g.N())
	for v := 0; v < g.N(); v++ {
		initAt[v] = out.Result.FirstReception(v, radio.KindInit)
		dataAt[v] = out.Result.FirstReception(v, radio.KindData)
	}
	// The coordinator receives neither message; every other node must
	// satisfy dataAt[v] − dataStart == initAt[v] − initStart. Anchor the
	// phase starts at a neighbour of r, which has offset 1 in both phases.
	for v := 1; v < g.N(); v++ {
		if initAt[v] == 0 || dataAt[v] == 0 {
			t.Fatalf("node %d missing phase receptions: init=%d data=%d", v, initAt[v], dataAt[v])
		}
	}
	anchor := g.Neighbors(0)[0]
	initStart := initAt[anchor] - 1
	dataStart := dataAt[anchor] - 1
	for v := 1; v < g.N(); v++ {
		tInit := initAt[v] - initStart
		tData := dataAt[v] - dataStart
		if tInit != tData {
			t.Fatalf("node %d: phase-1 offset %d ≠ phase-3 offset %d", v, tInit, tData)
		}
	}
}
