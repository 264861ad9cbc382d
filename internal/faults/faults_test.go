// Unit tests of the fault models against hand-built States: the seeded
// hash, the rate boundary, jam budgets and targeting, crash outage
// timing, duty schedules, churn replay and composition — all independent
// of the engine, which gets its own faulted bit-identity tests.
package faults

import (
	"testing"

	"radiobcast/internal/graph"
)

// path5 is 0-1-2-3-4.
func path5() *graph.Graph {
	g := graph.New(5)
	for v := 0; v < 4; v++ {
		g.AddEdge(v, v+1)
	}
	return g
}

// effect is one node's three bits of a round's Words, as unpack reads
// them.
type effect uint8

const (
	jam effect = 1 << iota
	down
	wipe
)

// newWords returns cleared Words for n nodes, sized as the engine sizes
// them.
func newWords(n int) *Words {
	k := (n + 63) / 64
	return &Words{Jam: make([]uint64, k), Down: make([]uint64, k), Wipe: make([]uint64, k)}
}

// unpack reads the first n nodes' bits out of w.
func unpack(w *Words, n int) []effect {
	out := make([]effect, n)
	for v := range out {
		i, bit := v>>6, uint64(1)<<(uint(v)&63)
		if w.Jam[i]&bit != 0 {
			out[v] |= jam
		}
		if w.Down[i]&bit != 0 {
			out[v] |= down
		}
		if w.Wipe[i]&bit != 0 {
			out[v] |= wipe
		}
	}
	return out
}

// applyOnce runs one Apply call on cleared words.
func applyOnce(m Model, st *State, n int) []effect {
	w := newWords(n)
	m.Apply(st, w)
	return unpack(w, n)
}

// applyPost runs both phases of one round, the post-decision one with
// st's transmitters.
func applyPost(t *testing.T, m Model, st *State, n int) []effect {
	t.Helper()
	w := newWords(n)
	pre := *st
	pre.Transmitters = nil
	m.Apply(&pre, w)
	m.Apply(st, w)
	return unpack(w, n)
}

func TestHash64Deterministic(t *testing.T) {
	seen := map[uint64]bool{}
	for _, c := range [][3]int{{1, 2, 3}, {1, 3, 2}, {2, 1, 3}, {1, 2, 4}} {
		h := hash64(int64(c[0]), c[1], c[2])
		if h != hash64(int64(c[0]), c[1], c[2]) {
			t.Fatalf("hash64%v not deterministic", c)
		}
		if seen[h] {
			t.Fatalf("hash64%v collides with a permuted coordinate — packing is not injective enough", c)
		}
		seen[h] = true
	}
}

func TestThresholdBoundaries(t *testing.T) {
	if got := threshold(1); got != ^uint64(0) {
		t.Fatalf("threshold(1) = %d, want max", got)
	}
	if got := threshold(1.5); got != ^uint64(0) {
		t.Fatalf("threshold(1.5) = %d, want max", got)
	}
	if got := threshold(0); got != 0 {
		t.Fatalf("threshold(0) = %d, want 0", got)
	}
	if half := threshold(0.5); half < 1<<62 || half > 3<<62 {
		t.Fatalf("threshold(0.5) = %d, wildly off the midpoint", half)
	}
}

// TestRateBoundary pins the rate ≥ 1 fix: every transmission is jammed,
// not "all but nodes whose hash lands on the maximal value".
func TestRateBoundary(t *testing.T) {
	csr := path5().Freeze()
	tx := []int32{0, 1, 2, 3, 4}
	for _, rate := range []float64{1, 1.5, 100} {
		m := NewRate(rate, 42)
		m.Reset(5)
		for round := 1; round <= 50; round++ {
			eff := applyPost(t, m, &State{Round: round, CSR: csr, Heard: make([]bool, 5), Transmitters: tx}, 5)
			for v, e := range eff {
				if e&jam == 0 {
					t.Fatalf("rate %g: node %d round %d escaped the jam", rate, v, round)
				}
			}
		}
	}
	// Rate 0 jams nothing.
	m := NewRate(0, 42)
	m.Reset(5)
	eff := applyPost(t, m, &State{Round: 1, CSR: csr, Heard: make([]bool, 5), Transmitters: tx}, 5)
	for v, e := range eff {
		if e != 0 {
			t.Fatalf("rate 0 jammed node %d", v)
		}
	}
}

func TestRateSeedAndPhase(t *testing.T) {
	csr := path5().Freeze()
	tx := []int32{0, 1, 2, 3, 4}
	jams := func(seed int64) []effect {
		m := NewRate(0.5, seed)
		m.Reset(5)
		return applyPost(t, m, &State{Round: 3, CSR: csr, Heard: make([]bool, 5), Transmitters: tx}, 5)
	}
	a, b := jams(7), jams(7)
	for v := range a {
		if a[v] != b[v] {
			t.Fatal("same seed produced different jams")
		}
	}
	// The pre-step phase must be a no-op for a transmission-level model.
	m := NewRate(1, 7)
	m.Reset(5)
	eff := applyOnce(m, &State{Round: 1, CSR: csr, Heard: make([]bool, 5)}, 5)
	for v, e := range eff {
		if e != 0 {
			t.Fatalf("rate model acted in the pre-step phase (node %d)", v)
		}
	}
}

func TestJamBudgetAndPerRound(t *testing.T) {
	csr := path5().Freeze()
	m := NewJam(JamConfig{Budget: 3, PerRound: 2, Seed: 1})
	m.Reset(5)
	heard := make([]bool, 5)
	total := 0
	for round := 1; round <= 10; round++ {
		eff := applyPost(t, m, &State{Round: round, CSR: csr, Heard: heard, Transmitters: []int32{0, 1, 2, 3, 4}}, 5)
		jammed := 0
		for _, e := range eff {
			if e&jam != 0 {
				jammed++
			}
		}
		if jammed > 2 {
			t.Fatalf("round %d: %d jams exceed PerRound 2", round, jammed)
		}
		total += jammed
	}
	if total != 3 {
		t.Fatalf("spent %d jams over the run, want exactly Budget 3", total)
	}
}

func TestJamGreedyTargetsFrontier(t *testing.T) {
	// Heard: 0 and 1 know the message; 2, 3, 4 do not. Transmitters 1 and
	// 3: jamming 1 denies an uninformed neighbour (2); 3's neighbours (2,
	// 4) are both uninformed, gain 2 — the greedy adversary with quota 1
	// must pick 3.
	csr := path5().Freeze()
	m := NewJam(JamConfig{Budget: 1, Greedy: true})
	m.Reset(5)
	heard := []bool{true, true, false, false, false}
	eff := applyPost(t, m, &State{Round: 1, CSR: csr, Heard: heard, Transmitters: []int32{1, 3}}, 5)
	if eff[3]&jam == 0 || eff[1]&jam != 0 {
		t.Fatalf("greedy jam picked %v, want node 3 (gain 2) over node 1 (gain 1)", eff)
	}

	// Zero-gain transmissions never cost budget: with everyone informed,
	// the greedy adversary holds fire.
	m.Reset(5)
	all := []bool{true, true, true, true, true}
	eff = applyPost(t, m, &State{Round: 1, CSR: csr, Heard: all, Transmitters: []int32{1, 3}}, 5)
	for v, e := range eff {
		if e != 0 {
			t.Fatalf("greedy jam wasted budget on zero-gain node %d", v)
		}
	}
}

func TestJamWindowAndNodes(t *testing.T) {
	csr := path5().Freeze()
	m := NewJam(JamConfig{From: 3, To: 4, Nodes: []int{2}})
	m.Reset(5)
	for round := 1; round <= 6; round++ {
		eff := applyPost(t, m, &State{Round: round, CSR: csr, Heard: make([]bool, 5), Transmitters: []int32{1, 2, 3}}, 5)
		inWindow := round >= 3 && round <= 4
		for v, e := range eff {
			wantJam := inWindow && v == 2
			if (e&jam != 0) != wantJam {
				t.Fatalf("round %d node %d: jam=%v, want %v", round, v, e&jam != 0, wantJam)
			}
		}
	}
}

func TestCrashOutageTiming(t *testing.T) {
	// Rate 1 in a one-round window: every node crashes at round 2 and
	// stays down for Down=3 rounds (2, 3, 4), then recovers.
	m := NewCrash(CrashConfig{Rate: 1, Down: 3, From: 2, To: 2, Lose: true, Seed: 9})
	m.Reset(3)
	for round := 1; round <= 6; round++ {
		eff := applyOnce(m, &State{Round: round}, 3)
		wantDown := round >= 2 && round <= 4
		for v, e := range eff {
			if (e&down != 0) != wantDown {
				t.Fatalf("round %d node %d: down=%v, want %v", round, v, e&down != 0, wantDown)
			}
			// Wipe fires only at the crash round itself, not during the
			// outage tail.
			if wantWipe := round == 2; (e&wipe != 0) != wantWipe {
				t.Fatalf("round %d node %d: wipe=%v, want %v", round, v, e&wipe != 0, wantWipe)
			}
		}
	}
	// Without Lose, no Wipe.
	m = NewCrash(CrashConfig{Rate: 1, Down: 1, From: 1, To: 1})
	m.Reset(2)
	eff := applyOnce(m, &State{Round: 1}, 2)
	if eff[0]&wipe != 0 {
		t.Fatal("retain-policy crash set Wipe")
	}
	// The post-decide phase is a no-op for crashes.
	eff = applyOnce(m, &State{Round: 1, Transmitters: []int32{0}}, 2)
	if eff[0] != 0 {
		t.Fatal("crash model acted in the post-decide phase")
	}
}

func TestDutySchedule(t *testing.T) {
	// Period 4, On 3, seed 0: everyone awake rounds 1-3, asleep round 4,
	// awake 5-7, asleep 8, …
	m := NewDutyCycle(DutyConfig{Period: 4, On: 3})
	m.Reset(4)
	for round := 1; round <= 12; round++ {
		eff := applyOnce(m, &State{Round: round}, 4)
		asleep := round%4 == 0
		for v, e := range eff {
			if (e&down != 0) != asleep {
				t.Fatalf("round %d node %d: down=%v, want %v", round, v, e&down != 0, asleep)
			}
		}
	}
	// A non-zero seed staggers phases: over one full period, each node
	// sleeps exactly Period-On rounds, but not all in the same round.
	m = NewDutyCycle(DutyConfig{Period: 4, On: 3, Seed: 11})
	const n = 64
	m.Reset(n)
	sleeps := make([]int, n)
	aligned := true
	var first []bool
	for round := 1; round <= 4; round++ {
		eff := applyOnce(m, &State{Round: round}, n)
		cur := make([]bool, n)
		for v, e := range eff {
			if e&down != 0 {
				sleeps[v]++
				cur[v] = true
			}
		}
		if first == nil {
			first = cur
		}
		for v := range cur {
			if cur[v] != first[v] {
				aligned = false
			}
		}
	}
	for v, s := range sleeps {
		if s != 1 {
			t.Fatalf("node %d slept %d rounds per period, want 1", v, s)
		}
	}
	if aligned {
		t.Fatal("seeded duty cycle left all 64 phases aligned")
	}
	// On == Period disables sleeping entirely.
	m = NewDutyCycle(DutyConfig{Period: 4, On: 4})
	m.Reset(2)
	eff := applyOnce(m, &State{Round: 4}, 2)
	if eff[0] != 0 || eff[1] != 0 {
		t.Fatal("always-on duty cycle put a node to sleep")
	}
}

func TestChurnReplay(t *testing.T) {
	base := path5()
	m := NewChurn(base, []ChurnEvent{
		{Round: 3, Add: true, U: 0, V: 4},
		{Round: 5, U: 2, V: 3},            // remove
		{Round: 5, Add: true, U: 2, V: 3}, // …and re-add in the same round: net no-op, but a fresh freeze
		{Round: 7, U: 9, V: 1},            // out of range: skipped
		{Round: 8, Add: true, U: 1, V: 2}, // already present: no-op
	})
	m.Reset(5)
	if csr := m.Topology(1); csr != nil {
		t.Fatalf("round 1: topology changed with no due events")
	}
	csr := m.Topology(3)
	if csr == nil {
		t.Fatal("round 3: add event produced no new topology")
	}
	if csr.M() != 5 || csr.Degree(0) != 2 {
		t.Fatalf("round 3 CSR: m=%d deg(0)=%d, want 5 and 2", csr.M(), csr.Degree(0))
	}
	// Round 5's remove+re-add cancels out but still counts as change.
	csr = m.Topology(5)
	if csr == nil || csr.M() != 5 {
		t.Fatalf("round 5 CSR = %v", csr)
	}
	if m.Topology(7) != nil {
		t.Fatal("out-of-range event must not re-freeze")
	}
	if m.Topology(8) != nil {
		t.Fatal("no-op add must not re-freeze")
	}
	// The base graph is untouched throughout.
	if base.M() != 4 || base.HasEdge(0, 4) {
		t.Fatalf("churn mutated the base graph: m=%d", base.M())
	}
	// Reset rewinds the schedule.
	m.Reset(5)
	if csr := m.Topology(10); csr == nil || csr.M() != 5 {
		t.Fatal("after Reset, replaying to round 10 lost the schedule")
	}
}

func TestCompose(t *testing.T) {
	if Compose() != nil || Compose(nil, nil) != nil {
		t.Fatal("empty composition must be nil (clean)")
	}
	r := NewRate(1, 1)
	if Compose(nil, r) != r {
		t.Fatal("single-member composition must unwrap")
	}

	// Union of effects: crash (Down, pre-step) + rate 1 (Jam, post-step).
	crash := NewCrash(CrashConfig{Rate: 1, Down: 10, From: 1, To: 1})
	m := Compose(crash, NewRate(1, 1))
	m.Reset(3)
	eff := applyPost(t, m, &State{Round: 1, Transmitters: []int32{0, 1, 2}}, 3)
	for v, e := range eff {
		if e&down == 0 || e&jam == 0 {
			t.Fatalf("node %d effects = %v, want Down|Jam", v, e)
		}
	}

	// A composed churn member still steers the topology.
	base := path5()
	tm := Compose(NewRate(0.5, 1), NewChurn(base, []ChurnEvent{{Round: 2, Add: true, U: 0, V: 2}}))
	tmTop, ok := tm.(TopologyModel)
	if !ok {
		t.Fatal("composition with a churn member lost the TopologyModel face")
	}
	tm.Reset(5)
	if csr := tmTop.Topology(2); csr == nil || csr.M() != 5 {
		t.Fatal("composed churn did not surface its topology")
	}
}
