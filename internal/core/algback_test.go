package core

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"radiobcast/internal/faults"
	"radiobcast/internal/graph"
	"radiobcast/internal/radio"
)

func TestAlgBackSingleEdge(t *testing.T) {
	// n=2: v informed in round 1 = 2ℓ−3 (ℓ=2); z = v transmits (ack,1) in
	// round 2 = 2ℓ−2; the source hears it.
	g := graph.Path(2)
	l, err := LambdaAck(g, 0, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out := runAcknowledgedLabeled(g, l, 0, "m")
	if err := out.verifyAcknowledged("m"); err != nil {
		t.Fatal(err)
	}
	if out.AckRound != 2 {
		t.Fatalf("ack round = %d, want 2", out.AckRound)
	}
	if z := slices.IndexFunc(l.Labels, Label.X3); z != 1 {
		t.Fatalf("z = %d, want 1", z)
	}
}

func TestAlgBackFigure1(t *testing.T) {
	// ℓ=5: completion in round 7, ack window {2ℓ−2..3ℓ−4} = {8..11}.
	g := graph.Figure1()
	l, err := LambdaAck(g, graph.Figure1Source, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out := runAcknowledgedLabeled(g, l, graph.Figure1Source, "m")
	if err := out.verifyAcknowledged("m"); err != nil {
		t.Fatal(err)
	}
	if out.CompletionRound != 7 {
		t.Fatalf("completion = %d, want 7", out.CompletionRound)
	}
	if out.AckRound < 8 || out.AckRound > 11 {
		t.Fatalf("ack round = %d, want within [8,11]", out.AckRound)
	}
	// z must be node 12 (the unique last-informed node).
	if z := slices.IndexFunc(l.Labels, Label.X3); z != 12 {
		t.Fatalf("z = %d, want 12", z)
	}
}

func TestAlgBackPath(t *testing.T) {
	// Path from an endpoint: ℓ = n; broadcast t = 2n−3; the ack chain walks
	// back hop by hop: t′ = 3ℓ−4 exactly.
	n := 7
	out, err := runAcknowledged(graph.Path(n), 0, "m", BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := out.verifyAcknowledged("m"); err != nil {
		t.Fatal(err)
	}
	if out.CompletionRound != 2*n-3 {
		t.Fatalf("completion = %d, want %d", out.CompletionRound, 2*n-3)
	}
	if out.AckRound != 3*n-4 {
		t.Fatalf("ack = %d, want 3n−4 = %d", out.AckRound, 3*n-4)
	}
}

func TestAlgBackTheorem39Window(t *testing.T) {
	// Theorem 3.9 in terms of n: t ≤ 2n−3 and t′ ∈ {t+1, …, t+n−2}.
	//
	// Reproduction finding: the upper bound t+n−2 is off by one. The ack
	// delay is t′ − t = ℓ − 1 (Corollary 3.8), and ℓ = n is attainable (a
	// path with the source at an endpoint), giving t′ = t + n − 1. The
	// corrected n-based window {t+1, …, t+n−1} is what we verify here; the
	// exact ℓ-based window of Corollary 3.8 is verified in
	// VerifyAcknowledged. See EXPERIMENTS.md §T39.
	for _, name := range graph.FamilyNames() {
		g := graph.Families[name](30)
		n := g.N()
		if n < 3 {
			continue
		}
		out, err := runAcknowledged(g, 0, "m", BuildOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := out.verifyAcknowledged("m"); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tC, tA := out.CompletionRound, out.AckRound
		if tC > 2*n-3 {
			t.Fatalf("%s: t = %d > 2n−3 = %d", name, tC, 2*n-3)
		}
		if tA < tC+1 || tA > tC+n-1 {
			t.Fatalf("%s: t′ = %d outside {t+1..t+n−1} = {%d..%d}", name, tA, tC+1, tC+n-1)
		}
	}
}

func TestAlgBackQuickRandom(t *testing.T) {
	f := func(seed int64) bool {
		n := 2 + int(uint64(seed)%50)
		g := graph.GNPConnected(n, 0.2, seed)
		src := int(uint64(seed) % uint64(n))
		out, err := runAcknowledged(g, src, "m", BuildOptions{})
		if err != nil {
			return false
		}
		return out.verifyAcknowledged("m") == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAlgBackAllSourcesSmall(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Cycle(5), graph.Grid(3, 3), graph.Complete(5), graph.Figure1(),
	} {
		for src := 0; src < g.N(); src++ {
			out, err := runAcknowledged(g, src, "m", BuildOptions{})
			if err != nil {
				t.Fatalf("src=%d: %v", src, err)
			}
			if err := out.verifyAcknowledged("m"); err != nil {
				t.Fatalf("src=%d: %v", src, err)
			}
		}
	}
}

func TestAlgBackTimestampsMatchRounds(t *testing.T) {
	// Lemma 3.5: a message (µ, t) or ("stay", t) is transmitted only in
	// round t. We check every traced transmission.
	g := graph.Figure1()
	l, err := LambdaAck(g, graph.Figure1Source, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ps, _ := NewBackProtocols(l.Labels, graph.Figure1Source, "m")
	tr := &radio.Trace{}
	radio.Run(g, ps, radio.Options{MaxRounds: 40, StopAfterSilent: 3, Trace: tr})
	for _, round := range tr.Rounds {
		for _, tx := range round.Transmitters {
			if tx.Msg.Kind == radio.KindData || tx.Msg.Kind == radio.KindStay {
				if tx.Msg.TS != round.Round {
					t.Fatalf("round %d: %s transmitted with TS %d (Lemma 3.5 violated)",
						round.Round, tx.Msg.Kind, tx.Msg.TS)
				}
			}
		}
	}
}

func TestAlgBackAtMostOneTransmitterAfterBroadcast(t *testing.T) {
	// Lemma 3.6: after round 2ℓ−3 at most one node transmits per round.
	g := graph.Figure1()
	l, err := LambdaAck(g, graph.Figure1Source, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ps, _ := NewBackProtocols(l.Labels, graph.Figure1Source, "m")
	tr := &radio.Trace{}
	radio.Run(g, ps, radio.Options{MaxRounds: 40, StopAfterSilent: 3, Trace: tr})
	cutoff := 2*l.Stages.L - 3
	for _, round := range tr.Rounds {
		if round.Round > cutoff && len(round.Transmitters) > 1 {
			t.Fatalf("round %d: %d transmitters after broadcast end (Lemma 3.6)",
				round.Round, len(round.Transmitters))
		}
	}
}

func TestAlgBackMessageSizeLogN(t *testing.T) {
	// Back's messages carry an O(log n) timestamp: bits grow
	// logarithmically, not linearly.
	bits64 := ackMaxBits(t, 64)
	bits512 := ackMaxBits(t, 512)
	if bits512 > bits64+4 {
		t.Fatalf("message bits grew too fast: n=64 → %d, n=512 → %d", bits64, bits512)
	}
}

func ackMaxBits(t *testing.T, n int) int {
	t.Helper()
	out, err := runAcknowledged(graph.Path(n), 0, "m", BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return out.Result.MaxMessageBits
}

func TestAlgBackWrongZPrematureAck(t *testing.T) {
	// ABLZ ablation: choosing a z that is informed early makes the ack
	// arrive before broadcast completion, breaking acknowledgement — this
	// demonstrates why z must be a last-informed node.
	g := graph.Path(6)
	l, err := LambdaAckWithZ(g, 0, 1, BuildOptions{}) // node 1: informed in round 1
	if err != nil {
		t.Fatal(err)
	}
	out := runAcknowledgedLabeled(g, l, 0, "m")
	if out.AckRound == 0 {
		t.Fatal("expected an (incorrectly early) ack")
	}
	if out.AckRound > out.CompletionRound {
		t.Fatalf("ack at %d after completion %d: expected premature ack with wrong z",
			out.AckRound, out.CompletionRound)
	}
}

func TestAlgBackInformedAccessor(t *testing.T) {
	mu := "m"
	src := newAckNode(MustParseLabel("100"), &mu, backSpec)
	if !src.m.origin || src.m.firstRecv != 0 {
		t.Fatal("source accessor wrong")
	}
	other := newAckNode(MustParseLabel("000"), nil, backSpec)
	if other.m.origin || other.m.firstRecv != 0 {
		t.Fatal("fresh node informed")
	}
}

// sentTx is one broadcast-kind transmission a protocol decided on.
type sentTx struct{ round, ts int }

// txRecorder wraps a protocol and logs, per phase tag, the broadcast-kind
// transmissions it decides on, including those a fault keeps off the
// channel. It is not a radio.Waker, so the engine steps it every round.
type txRecorder struct {
	radio.Protocol
	round int
	runs  map[uint8][]sentTx
}

func (r *txRecorder) Step(rcv, out *radio.Message) bool {
	r.round++
	if !r.Protocol.Step(rcv, out) {
		return false
	}
	spec := backSpec
	if p := out.Phase; p > 0 {
		spec = barbSpecs[p-1]
	}
	if out.Kind == spec.kind {
		r.runs[out.Phase] = append(r.runs[out.Phase], sentTx{r.round, out.TS})
	}
	return true
}

// checkTimestampRun runs ps on g under model and checks every node's
// broadcast transmissions, per phase: they fall in rounds s, s+2, …, each
// timestamp minus its round is one constant, and the machine's
// sentWithTS accepts exactly the timestamps sent. It returns the number
// of retransmissions checked: transmissions after the first of a run.
func checkTimestampRun(t *testing.T, g *graph.Graph, ps []radio.Protocol, model faults.Model, machine func(v int, phase uint8) *ackMachine) int {
	t.Helper()
	rec := make([]txRecorder, len(ps))
	wrapped := make([]radio.Protocol, len(ps))
	for v := range ps {
		rec[v] = txRecorder{Protocol: ps[v], runs: map[uint8][]sentTx{}}
		wrapped[v] = &rec[v]
	}
	radio.Run(g, wrapped, radio.Options{MaxRounds: 14*g.N() + 40, Faults: model})
	retx := 0
	for v := range rec {
		for phase, run := range rec[v].runs {
			m := machine(v, phase)
			for i, tx := range run {
				if i > 0 && tx.round != run[i-1].round+2 {
					t.Fatalf("node %d phase %d: transmissions in rounds %v, not one run two apart", v, phase, run)
				}
				if m.spec.timestamps && tx.ts-tx.round != run[0].ts-run[0].round {
					t.Fatalf("node %d phase %d: timestamp offsets differ in %v", v, phase, run)
				}
				if m.spec.timestamps && !m.sentWithTS(int32(tx.ts)) {
					t.Fatalf("node %d phase %d: sent TS %d, sentWithTS denies it", v, phase, tx.ts)
				}
			}
			if m.spec.timestamps {
				if want := (m.lastTS-m.firstTS)/2 + 1; int(want) != len(run) {
					t.Fatalf("node %d phase %d: [firstTS, lastTS] = [%d, %d] spans %d timestamps, node sent %d",
						v, phase, m.firstTS, m.lastTS, want, len(run))
				}
			}
			retx += len(run) - 1
		}
	}
	return retx
}

// TestAckMachineTimestampRun pins the invariant that lets two integers
// stand for a node's transmit timestamps, on random connected graphs,
// fault-free and under rate and crash faults, for Back and for each of
// Barb's phases.
func TestAckMachineTimestampRun(t *testing.T) {
	for name, model := range map[string]func(seed int64) faults.Model{
		"clean": func(int64) faults.Model { return nil },
		"rate":  func(seed int64) faults.Model { return faults.NewRate(0.15, seed) },
		"crash": func(seed int64) faults.Model {
			return faults.NewCrash(faults.CrashConfig{Rate: 0.05, Down: 3, Seed: seed})
		},
	} {
		t.Run(name, func(t *testing.T) {
			retx := 0
			for seed := int64(1); seed <= 40; seed++ {
				n := 2 + int(seed*7%40)
				g := graph.GNPConnected(n, 0.15, seed)
				src := int(seed*13) % n
				lack, err := LambdaAck(g, src, BuildOptions{})
				if err != nil {
					t.Fatal(err)
				}
				back, _ := NewBackProtocols(lack.Labels, src, "m")
				retx += checkTimestampRun(t, g, back, model(seed), func(v int, _ uint8) *ackMachine {
					return &back[v].(*AckNode).m
				})
				larb, err := LambdaArb(g, int(seed*5)%n, BuildOptions{})
				if err != nil {
					t.Fatal(err)
				}
				barb, _ := NewBarbProtocols(larb.Labels, int(seed*3)%n, "m")
				retx += checkTimestampRun(t, g, barb, model(seed), func(v int, phase uint8) *ackMachine {
					return &barb[v].(*AlgBarb).p[phase-1]
				})
			}
			if retx < 50 {
				t.Fatalf("only %d retransmissions checked", retx)
			}
		})
	}
}

// TestAlgBackRelaysOnlyOwnTimestamps drives one Back node from a scripted
// neighbour. The node is informed with timestamp 1 and, prompted by two
// "stay" messages, transmits µ with timestamps 3, 5 and 7. It must relay
// an ack exactly when the ack's TS is one of those: not for a TS inside
// [3, 7] of the wrong parity, and not for one outside that range.
func TestAlgBackRelaysOnlyOwnTimestamps(t *testing.T) {
	rounds := []int{1, 4, 6}
	msgs := []radio.Message{
		{Kind: radio.KindData, Payload: "m", TS: 1},
		{Kind: radio.KindStay, TS: 4},
		{Kind: radio.KindStay, TS: 6},
	}
	relay := map[int]bool{}
	for i, ts := range []int{5, 4, 9, 1, 3, 6, 7, 8, 2} {
		r := 8 + 2*i
		rounds = append(rounds, r)
		msgs = append(msgs, radio.Message{Kind: radio.KindAck, TS: ts})
		if ts == 3 || ts == 5 || ts == 7 {
			relay[r+1] = true
		}
	}
	script := radio.CompiledScript(rounds, msgs)
	ps := []radio.Protocol{&script, newAckNode(MustParseLabel("100"), nil, backSpec)}
	res := radio.Run(graph.Path(2), ps, radio.Options{MaxRounds: rounds[len(rounds)-1] + 2})

	var got []radio.Reception
	for _, rec := range res.Receives(0) {
		if rec.Msg.Kind == radio.KindAck {
			if !relay[rec.Round] {
				t.Errorf("round %d: node relayed an ack it did not send µ for", rec.Round)
			}
			if rec.Msg.TS != 1 {
				t.Errorf("round %d: relayed ack carries TS %d, want its informedRound 1", rec.Round, rec.Msg.TS)
			}
			got = append(got, rec)
		}
	}
	if len(got) != len(relay) {
		t.Fatalf("node relayed %d acks, want %d (rounds %v)", len(got), len(relay), relay)
	}
	if want := []int{3, 5, 7}; !reflect.DeepEqual(res.Transmits(1)[:3], want) {
		t.Fatalf("µ transmissions in rounds %v, want %v first", res.Transmits(1), want)
	}
}
