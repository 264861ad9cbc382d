package baseline

import (
	"testing"
	"testing/quick"

	"radiobcast/internal/core"
	"radiobcast/internal/graph"
	"radiobcast/internal/radio"
)

func TestRoundRobinLabelsDistinct(t *testing.T) {
	labels := RoundRobinLabels(10)
	if core.Distinct(labels) != 10 {
		t.Fatalf("labels not distinct: %v", labels)
	}
	if core.MaxLen(labels) != 4 { // ⌈log₂ 10⌉
		t.Fatalf("label width = %d, want 4", core.MaxLen(labels))
	}
	if labels[5] != core.MustParseLabel("0101") {
		t.Fatalf("label(5) = %s, want 0101", labels[5])
	}
}

func TestRoundRobinNoCollisionsEver(t *testing.T) {
	g := graph.Complete(7)
	out := runRoundRobin(g, 0, "m")
	for v, c := range out.Result.Collisions {
		if c != 0 {
			t.Fatalf("node %d saw %d collisions; round robin must be collision-free", v, c)
		}
	}
	if !out.AllInformed {
		t.Fatal("round robin incomplete")
	}
}

func TestRoundRobinCompletesOnFamilies(t *testing.T) {
	for _, name := range graph.FamilyNames() {
		g := graph.Families[name](20)
		out := runRoundRobin(g, 0, "m")
		if !out.AllInformed {
			t.Fatalf("%s: incomplete", name)
		}
	}
}

func TestRoundRobinPeriodBound(t *testing.T) {
	// Each BFS layer is fully informed after at most one period, so the
	// completion round is ≤ period · eccentricity.
	g := graph.Path(17)
	out := runRoundRobin(g, 0, "m")
	if !out.AllInformed {
		t.Fatal("round robin incomplete")
	}
	period := 1 << uint(core.MaxLen(RoundRobinLabels(g.N())))
	if out.CompletionRound > period*g.Eccentricity(0) {
		t.Fatalf("completion %d > period·ecc = %d", out.CompletionRound, period*g.Eccentricity(0))
	}
}

func TestColorRobinCompletes(t *testing.T) {
	for _, name := range graph.FamilyNames() {
		g := graph.Families[name](20)
		out := runColorRobin(g, 0, "m")
		if !out.AllInformed {
			t.Fatalf("%s: incomplete", name)
		}
	}
}

func TestColorRobinLabelBits(t *testing.T) {
	// Bounded-degree family: the colour labels must be much shorter than
	// the ⌈log n⌉ identifier labels.
	g := graph.Cycle(256)
	labels, num := ColorRobinLabels(g)
	if num > g.MaxDegree()*g.MaxDegree()+1 {
		t.Fatalf("colors = %d > Δ²+1", num)
	}
	if core.MaxLen(labels) >= core.MaxLen(RoundRobinLabels(256)) {
		t.Fatalf("colour labels (%d bits) not shorter than id labels (%d bits)",
			core.MaxLen(labels), core.MaxLen(RoundRobinLabels(256)))
	}
}

func TestColorRobinQuick(t *testing.T) {
	f := func(seed int64) bool {
		n := 2 + int(uint64(seed)%40)
		g := graph.GNPConnected(n, 0.2, seed)
		src := int(uint64(seed) % uint64(n))
		return runColorRobin(g, src, "m").AllInformed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCentralizedCompletesAndIsFast(t *testing.T) {
	for _, name := range graph.FamilyNames() {
		g := graph.Families[name](20)
		out := runCentralized(g, 0, "m")
		if !out.AllInformed {
			t.Fatalf("%s: incomplete", name)
		}
		// The centralized schedule should never be slower than λ's 2n−3.
		if out.CompletionRound > 2*g.N()-3 && g.N() > 2 {
			t.Fatalf("%s: centralized %d rounds > 2n−3", name, out.CompletionRound)
		}
	}
}

func TestCentralizedQuick(t *testing.T) {
	f := func(seed int64) bool {
		n := 2 + int(uint64(seed)%40)
		g := graph.GNPConnected(n, 0.2, seed)
		src := int(uint64(seed) % uint64(n))
		return runCentralized(g, src, "m").AllInformed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFloodingPathAllOnes(t *testing.T) {
	// On a path, all-1 labels with delay-1 forwarding complete: the wave
	// travels without collisions.
	n := 9
	labels := make([]core.Label, n)
	for v := range labels {
		labels[v] = core.MustParseLabel("1")
	}
	rounds, all, _ := RunFlooding(graph.Path(n), labels, DefaultDelays, 0, "m")
	if !all {
		t.Fatalf("path flooding incomplete: %v", rounds)
	}
	// Node v informed in round v.
	for v := 1; v < n; v++ {
		if rounds[v] != v {
			t.Fatalf("informed(%d) = %d, want %d", v, rounds[v], v)
		}
	}
}

func TestFloodingEvenCycleAllOnesFails(t *testing.T) {
	// On an even cycle the two waves collide at the antipode forever: this
	// is exactly why the 1-bit cycle scheme needs one 0 label.
	n := 8
	labels := make([]core.Label, n)
	for v := range labels {
		labels[v] = core.MustParseLabel("1")
	}
	rounds, all, _ := RunFlooding(graph.Cycle(n), labels, DefaultDelays, 0, "m")
	if all {
		t.Fatal("all-ones flooding should fail on an even cycle")
	}
	if rounds[n/2] != 0 {
		t.Fatalf("antipode informed at %d, want never", rounds[n/2])
	}
}

func TestFloodingZeroBitNeverForwards(t *testing.T) {
	g := graph.Path(3)
	labels := []core.Label{core.MakeLabel(true), core.MakeLabel(false), core.MakeLabel(true)}
	ps, stop := NewFloodingProtocols(labels, DefaultDelays, 0, "m")
	out := run(g, ps, radio.Options{MaxRounds: FloodingMaxRounds(g.N()), Stop: stop}, 0)
	if out.AllInformed {
		t.Fatal("node 2 should stay uninformed behind a 0-labeled node")
	}
	if len(out.Result.Transmits(1)) != 0 {
		t.Fatal("0-labeled node transmitted")
	}
}
