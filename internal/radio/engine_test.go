package radio

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"radiobcast/internal/graph"
)

func dataMsg(payload string) Message {
	return Message{Kind: KindData, Payload: payload}
}

// script returns a protocol transmitting msg in each of the given rounds,
// which must be ascending.
func script(msg Message, rounds ...int) *Scripted {
	msgs := make([]Message, len(rounds))
	for i := range msgs {
		msgs[i] = msg
	}
	s := CompiledScript(rounds, msgs)
	return &s
}

// listenAll returns n protocols that never transmit.
func listenAll(n int) []Protocol {
	ps := make([]Protocol, n)
	for i := range ps {
		ps[i] = &Scripted{}
	}
	return ps
}

func TestSingleTransmitterDelivers(t *testing.T) {
	// Path 0-1-2. Node 0 transmits in round 1; node 1 must hear it, node 2
	// must not (not adjacent).
	g := graph.Path(3)
	ps := listenAll(3)
	ps[0] = script(dataMsg("mu"), 1)
	res := Run(g, ps, Options{MaxRounds: 3})
	if got := res.FirstReception(1, KindData); got != 1 {
		t.Fatalf("node 1 first reception = %d, want 1", got)
	}
	if got := res.FirstReception(2, KindData); got != 0 {
		t.Fatalf("node 2 first reception = %d, want none", got)
	}
	if len(res.Receives(1)) != 1 || res.Receives(1)[0].Msg.Payload != "mu" {
		t.Fatalf("node 1 receptions = %+v", res.Receives(1))
	}
	if res.TotalTransmissions != 1 {
		t.Fatalf("TotalTransmissions = %d, want 1", res.TotalTransmissions)
	}
}

func TestCollisionSilencesListener(t *testing.T) {
	// Star with centre 0 and leaves 1,2. Both leaves transmit in round 1:
	// the centre hears nothing and records a collision.
	g := graph.Star(3)
	ps := listenAll(3)
	ps[1] = script(dataMsg("a"), 1)
	ps[2] = script(dataMsg("b"), 1)
	res := Run(g, ps, Options{MaxRounds: 2})
	if len(res.Receives(0)) != 0 {
		t.Fatalf("centre heard %v despite collision", res.Receives(0))
	}
	if res.Collisions[0] != 1 {
		t.Fatalf("Collisions[0] = %d, want 1", res.Collisions[0])
	}
}

func TestTransmitterHearsNothing(t *testing.T) {
	// Two adjacent nodes transmit simultaneously; neither hears the other.
	g := graph.Path(2)
	ps := []Protocol{
		script(dataMsg("x"), 1),
		script(dataMsg("y"), 1),
	}
	res := Run(g, ps, Options{MaxRounds: 2})
	if len(res.Receives(0)) != 0 || len(res.Receives(1)) != 0 {
		t.Fatal("transmitting node heard a message")
	}
	// and no collision is charged to a transmitter
	if res.Collisions[0] != 0 || res.Collisions[1] != 0 {
		t.Fatal("collision charged to transmitter")
	}
}

func TestReceivedMessageVisibleNextStep(t *testing.T) {
	// An echo protocol: retransmit whatever was heard, one round later.
	g := graph.Path(3)
	echo := &echoProtocol{}
	ps := []Protocol{script(dataMsg("mu"), 1), echo, &Scripted{}}
	res := Run(g, ps, Options{MaxRounds: 4})
	// Node 1 hears in round 1, echoes in round 2, node 2 hears in round 2.
	if got := res.FirstReception(2, KindData); got != 2 {
		t.Fatalf("node 2 first reception = %d, want 2", got)
	}
	if !reflect.DeepEqual(res.Transmits(1), []int{2}) {
		t.Fatalf("echo transmit rounds = %v, want [2]", res.Transmits(1))
	}
}

type echoProtocol struct{}

// Step retransmits in round r whatever was heard in round r−1 (the heard
// message is handed to the *next* Step call, so echoing it immediately
// means transmitting exactly one round after reception).
func (e *echoProtocol) Step(rcv, out *Message) bool {
	if rcv != nil {
		*out = *rcv
	}
	return rcv != nil
}

func TestStopAfterSilent(t *testing.T) {
	g := graph.Path(2)
	ps := []Protocol{script(dataMsg("x"), 1), &Scripted{}}
	res := Run(g, ps, Options{MaxRounds: 100, StopAfterSilent: 3})
	if !res.SilentStopped {
		t.Fatal("run did not silent-stop")
	}
	if res.Rounds != 4 { // round 1 active, rounds 2-4 silent
		t.Fatalf("Rounds = %d, want 4", res.Rounds)
	}
}

func TestStopCallback(t *testing.T) {
	g := graph.Path(2)
	ps := []Protocol{script(dataMsg("x"), 1, 5, 9), &Scripted{}}
	res := Run(g, ps, Options{
		MaxRounds: 100,
		Stop:      func(round int) bool { return round == 6 },
	})
	if res.Rounds != 6 {
		t.Fatalf("Rounds = %d, want 6", res.Rounds)
	}
}

func TestMaxRoundsRequired(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for MaxRounds = 0")
		}
	}()
	Run(graph.Path(2), listenAll(2), Options{})
}

func TestProtocolCountMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for protocol count mismatch")
		}
	}()
	Run(graph.Path(3), listenAll(2), Options{MaxRounds: 1})
}

func TestMessageCopiedNotAliased(t *testing.T) {
	// The engine must copy delivered messages: the out buffer is reused.
	g := graph.Path(2)
	keep := &keepProtocol{}
	sender := CompiledScript([]int{1, 2}, []Message{dataMsg("first"), dataMsg("second")})
	Run(g, []Protocol{&sender, keep}, Options{MaxRounds: 3})
	if len(keep.got) != 2 || keep.got[0].Payload != "first" || keep.got[1].Payload != "second" {
		t.Fatalf("deliveries corrupted: %+v", keep.got)
	}
}

type keepProtocol struct{ got []Message }

func (k *keepProtocol) Step(rcv, _ *Message) bool {
	if rcv != nil {
		k.got = append(k.got, *rcv)
	}
	return false
}

// TestResultFromEventLog checks the per-node views of a Result built
// from a hand-written, round-ordered event log on four nodes, on the
// engine's own path: the log in a Sim, a wipe that drops a reception
// (dropWiped), then materialize. Node 3's only reception, in round 2, is
// wiped before it steps on it; node 2 neither transmits nor hears.
func TestResultFromEventLog(t *testing.T) {
	a, b, c := Reception{1, dataMsg("a")}, Reception{2, dataMsg("b")}, Reception{3, dataMsg("c")}
	s := NewSim()
	s.reset(4, make([]Protocol, 4))
	s.txNodes, s.txRounds = []int32{0, 1, 0}, []int32{1, 2, 3}
	s.rxNodes, s.rxRecs = []int32{1, 0, 3}, []Reception{a, b, b}
	s.dropWiped(1, []uint64{1 << 3}) // round 2's receptions start at entry 1
	s.rxNodes, s.rxRecs = append(s.rxNodes, 1), append(s.rxRecs, c)
	s.collisions[2] = 1
	res := s.materialize(3, 3, false)

	if res.N() != 4 || res.Rounds != 3 || res.TotalTransmissions != 3 {
		t.Fatalf("N %d, rounds %d, transmissions %d; want 4, 3, 3", res.N(), res.Rounds, res.TotalTransmissions)
	}
	wantTx := [][]int{{1, 3}, {2}, {}, {}}
	wantRx := [][]Reception{{b}, {a, c}, {}, {}}
	for v := range res.N() {
		if got := res.Transmits(v); !slices.Equal(got, wantTx[v]) {
			t.Errorf("Transmits(%d) = %v, want %v", v, got, wantTx[v])
		}
		if got := res.Receives(v); !slices.Equal(got, wantRx[v]) {
			t.Errorf("Receives(%d) = %v, want %v", v, got, wantRx[v])
		}
	}
	if !slices.Equal(res.Collisions, []int{0, 0, 1, 0}) {
		t.Errorf("Collisions = %v, want [0 0 1 0]", res.Collisions)
	}
	if res.FirstReception(1, KindData) != 1 || res.FirstReception(3, KindData) != NoReception {
		t.Errorf("first receptions %d and %d, want 1 and NoReception", res.FirstReception(1, KindData), res.FirstReception(3, KindData))
	}

	// The views share no memory with the log, and appending to one leaves
	// the next node's untouched.
	s.rxRecs[0].Msg.Payload = "x"
	_ = append(res.Transmits(0), 99)
	if res.Receives(1)[0] != a || !slices.Equal(res.Transmits(1), []int{2}) {
		t.Errorf("views changed: Receives(1) = %v, Transmits(1) = %v", res.Receives(1), res.Transmits(1))
	}
}

func TestMetrics(t *testing.T) {
	g := graph.Star(4)
	ps := listenAll(4)
	ps[0] = script(Message{Kind: KindData, Payload: "abc", TS: 9}, 1, 2)
	res := Run(g, ps, Options{MaxRounds: 2})
	if res.TotalTransmissions != 2 {
		t.Fatalf("TotalTransmissions = %d", res.TotalTransmissions)
	}
	if res.MaxTransmissionsPerNode() != 2 {
		t.Fatalf("MaxTransmissionsPerNode = %d", res.MaxTransmissionsPerNode())
	}
	wantBits := 3 + 8*3 + 4 // kind + payload + TS(9 → 4 bits)
	if res.MaxMessageBits != wantBits {
		t.Fatalf("MaxMessageBits = %d, want %d", res.MaxMessageBits, wantBits)
	}
	for v, want := range []int{2, 0, 0, 0} {
		if got := len(res.Transmits(v)); got != want {
			t.Fatalf("node %d transmitted %d times, want %d", v, got, want)
		}
	}
}

func TestTraceCapture(t *testing.T) {
	g := graph.Path(2)
	tr := &Trace{}
	ps := []Protocol{script(dataMsg("mu"), 1), &Scripted{}}
	Run(g, ps, Options{MaxRounds: 2, Trace: tr})
	if len(tr.Rounds) != 1 {
		t.Fatalf("trace rounds = %d, want 1 (silent rounds omitted)", len(tr.Rounds))
	}
	r := tr.Rounds[0]
	if len(r.Transmitters) != 1 || r.Transmitters[0].Node != 0 {
		t.Fatalf("trace transmitters = %+v", r.Transmitters)
	}
	if len(r.Deliveries) != 1 || r.Deliveries[0].Node != 1 {
		t.Fatalf("trace deliveries = %+v", r.Deliveries)
	}
	if tr.String() == "" {
		t.Fatal("empty trace rendering")
	}
}

// randomScripted builds random fixed schedules so the model cross-check
// exercises dense collision patterns; sched[v][r] reports whether node v
// transmits in round r.
func randomScripted(r *rand.Rand, n, horizon int) (ps []Protocol, sched [][]bool) {
	ps = make([]Protocol, n)
	sched = make([][]bool, n)
	for v := 0; v < n; v++ {
		var rounds []int
		var msgs []Message
		sched[v] = make([]bool, horizon+1)
		for round := 1; round <= horizon; round++ {
			if r.Intn(3) == 0 {
				rounds = append(rounds, round)
				msgs = append(msgs, Message{Kind: KindData, Payload: "p", TS: round})
				sched[v][round] = true
			}
		}
		s := CompiledScript(rounds, msgs)
		ps[v] = &s
	}
	return ps, sched
}

func TestQuickExactlyOneNeighbourRule(t *testing.T) {
	// Cross-check the engine against a brute-force evaluation of the model:
	// v hears in round r iff v listens and exactly one neighbour transmits.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(30)
		g := graph.GNPConnected(n, 0.3, seed)
		horizon := 1 + r.Intn(10)
		ps, sched := randomScripted(rand.New(rand.NewSource(seed+1)), n, horizon)
		res := Run(g, ps, Options{MaxRounds: horizon})
		for v := 0; v < n; v++ {
			gotRounds := map[int]bool{}
			for _, rec := range res.Receives(v) {
				gotRounds[rec.Round] = true
			}
			for round := 1; round <= horizon; round++ {
				count := 0
				for _, w := range g.Neighbors(v) {
					if sched[w][round] {
						count++
					}
				}
				wantHear := !sched[v][round] && count == 1
				if gotRounds[round] != wantHear {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestMessageBitLen(t *testing.T) {
	cases := []struct {
		msg  Message
		want int
	}{
		{Message{Kind: KindStay}, 3},
		{Message{Kind: KindData, Payload: "ab"}, 3 + 16},
		{Message{Kind: KindAck, TS: 1}, 3 + 1},
		{Message{Kind: KindAck, TS: 255}, 3 + 8},
		{Message{Kind: KindReady, Aux: 7, Phase: 2}, 3 + 3 + 2},
	}
	for _, c := range cases {
		if got := c.msg.BitLen(); got != c.want {
			t.Errorf("BitLen(%v) = %d, want %d", c.msg, got, c.want)
		}
	}
}

// TestMessageSize pins the layout on 64-bit platforms: Kind and Phase
// share a word, so a Message is 40 bytes and a Reception, every entry of
// a Result's reception array, 48.
func TestMessageSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Message{}); got != 40 {
		t.Errorf("Message is %d bytes, want 40", got)
	}
	if got := unsafe.Sizeof(Reception{}); got != 48 {
		t.Errorf("Reception is %d bytes, want 48", got)
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		KindData: "data", KindStay: "stay", KindAck: "ack",
		KindInit: "initialize", KindReady: "ready",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestAnnotationsFormat(t *testing.T) {
	g := graph.Path(2)
	ps := []Protocol{script(dataMsg("mu"), 1), &Scripted{}}
	res := Run(g, ps, Options{MaxRounds: 1})
	out := Annotations(res, []string{"10", "00"})
	if out == "" {
		t.Fatal("empty annotations")
	}
}
