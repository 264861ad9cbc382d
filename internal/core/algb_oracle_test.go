package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"radiobcast/internal/faults"
	"radiobcast/internal/graph"
	"radiobcast/internal/radio"
	"radiobcast/internal/radio/radiotest"
)

// oracleB is algorithm B (Algorithm 1) at a single node, transcribed line
// by line from the paper's pseudocode: decisions depend only on the
// node's 2-bit label and on the rounds (relative to its own history) in
// which it received µ or "stay". Production runs B on the shared
// acknowledged-broadcast machine (bSpec); this transcription is the
// oracle the machine is checked against.
type oracleB struct {
	label    Label
	isSource bool

	round      int    // local round counter (number of Step calls)
	msg        string // sourcemsg; "" = null
	haveMsg    bool
	everActive bool // "never sent or received a message" guard
	informedAt int  // round of first µ reception (−1 for the source / never)
	lastDataTx int  // last round this node transmitted µ (−1 = never)
	stayAt     int  // round of the most recent "stay" reception (−1 = never)
}

func newOracleB(label Label, sourceMsg *string) *oracleB {
	a := &oracleB{label: label, informedAt: -1, lastDataTx: -1, stayAt: -1}
	if sourceMsg != nil {
		a.isSource = true
		a.haveMsg = true
		a.msg = *sourceMsg
	}
	return a
}

// Step implements radio.Protocol, mirroring Algorithm 1 line by line.
func (a *oracleB) Step(rcv, out *radio.Message) bool {
	a.round++
	r := a.round

	if rcv != nil {
		a.everActive = true
		switch rcv.Kind {
		case radio.KindData:
			// line 5-7: adopt µ on first reception of a non-"stay" message
			if !a.haveMsg {
				a.haveMsg = true
				a.msg = rcv.Payload
				a.informedAt = r - 1
			}
		case radio.KindStay:
			a.stayAt = r - 1
		}
	}

	switch {
	case !a.everActive && a.haveMsg:
		// lines 2-3: the source transmits µ in its first round
		a.everActive = true
		a.lastDataTx = r
		*out = radio.Message{Kind: radio.KindData, Payload: a.msg}
		return true

	case !a.haveMsg:
		// line 4: still uninformed — listen
		return false

	case a.informedAt > 0 && a.informedAt == r-2:
		// lines 9-12: first received µ two rounds ago
		if a.label.X1() {
			a.lastDataTx = r
			*out = radio.Message{Kind: radio.KindData, Payload: a.msg}
			return true
		}
		return false

	case a.informedAt > 0 && a.informedAt == r-1:
		// lines 13-16: first received µ one round ago
		if a.label.X2() {
			*out = radio.Message{Kind: radio.KindStay}
			return true
		}
		return false

	case a.lastDataTx > 0 && a.lastDataTx == r-2 && a.stayAt == r-1:
		// lines 17-19: transmitted µ two rounds ago and heard "stay" since
		a.lastDataTx = r
		*out = radio.Message{Kind: radio.KindData, Payload: a.msg}
		return true

	default:
		return false
	}
}

// NextWake implements radio.Waker: a node acts only in the two rounds
// after its first µ reception; every other action answers a "stay" heard
// in the previous round, which forces a step by itself.
func (a *oracleB) NextWake() int {
	if a.informedAt > 0 {
		if w := a.informedAt + 1; w > a.round {
			return w
		}
		if w := a.informedAt + 2; w > a.round {
			return w
		}
	}
	return radio.NeverWake
}

// Skip implements radio.Waker.
func (a *oracleB) Skip(rounds int) { a.round += rounds }

func oracleBProtocols(labels []Label, source int, mu string) []radio.Protocol {
	ps := make([]radio.Protocol, len(labels))
	for v := range labels {
		var src *string
		if v == source {
			src = &mu
		}
		ps[v] = newOracleB(labels[v], src)
	}
	return ps
}

// bCase is one differential input: a connected graph, a source, a
// labeling and a fault model.
type bCase struct {
	g      *graph.Graph
	source int
	labels []Label
	fault  int // 0 = clean; see model
	seed   int64
}

// numBFaults counts bCase's fault selectors, clean included.
const numBFaults = 9

var bFaultNames = [numBFaults]string{"clean", "rate", "crash", "crash-lose", "jam-greedy", "jam-oblivious", "duty", "duty-seeded", "churn"}

func (c bCase) String() string {
	return fmt.Sprintf("n=%d source=%d fault=%s seed=%d labels=%v", c.g.N(), c.source, bFaultNames[c.fault], c.seed, c.labels)
}

// model builds a fresh instance of the case's fault model (models are
// stateful, so every run gets its own).
func (c bCase) model() faults.Model {
	switch c.fault {
	case 1:
		return faults.NewRate(0.2, c.seed)
	case 2, 3:
		return faults.NewCrash(faults.CrashConfig{Rate: 0.08, Down: 2, Lose: c.fault == 3, Seed: c.seed})
	case 4, 5:
		return faults.NewJam(faults.JamConfig{Budget: 4, PerRound: 1, Greedy: c.fault == 4, Seed: c.seed})
	case 6, 7:
		return faults.NewDutyCycle(faults.DutyConfig{Period: 4, On: 3, Seed: int64(c.fault-6) * c.seed})
	case 8:
		r := rand.New(rand.NewSource(c.seed))
		n := c.g.N()
		events := make([]faults.ChurnEvent, 1+r.Intn(6))
		for i := range events {
			events[i] = faults.ChurnEvent{Round: 1 + r.Intn(2*n), Add: r.Intn(2) == 0, U: r.Intn(n), V: r.Intn(n)}
		}
		return faults.NewChurn(c.g, events)
	}
	return nil
}

// run executes ps on the case with tracing on.
func (c bCase) run(ps []radio.Protocol) (*radio.Result, *radio.Trace) {
	tr := &radio.Trace{}
	res := radio.Run(c.g, ps, radio.Options{MaxRounds: 4*c.g.N() + 8, StopAfterSilent: 3, Faults: c.model(), Trace: tr})
	return res, tr
}

// check runs B on the machine and on the oracle and compares Results and
// traces.
func (c bCase) check() error {
	want, wantTr := c.run(oracleBProtocols(c.labels, c.source, "µ"))
	ps, release := NewBProtocols(c.labels, c.source, "µ")
	got, gotTr := c.run(ps)
	release()
	if !reflect.DeepEqual(want, got) {
		return fmt.Errorf("Results differ:\noracle  %+v\nmachine %+v", want, got)
	}
	if !reflect.DeepEqual(wantTr, gotTr) {
		return fmt.Errorf("traces differ")
	}
	return nil
}

var twoBitLabels = [4]Label{MakeLabel(false, false), MakeLabel(false, true), MakeLabel(true, false), MakeLabel(true, true)}

// randomTwoBitLabels draws each node's label from the four 2-bit labels;
// with echo set, only from (b, ¬b), the labels gjp's protocol runs on.
func randomTwoBitLabels(r *rand.Rand, n int, echo bool) []Label {
	labels := make([]Label, n)
	for v := range labels {
		if echo {
			labels[v] = twoBitLabels[1+r.Intn(2)]
		} else {
			labels[v] = twoBitLabels[r.Intn(4)]
		}
	}
	return labels
}

// TestAlgBMatchesOracle runs B on the machine and on the line-by-line
// oracle over random connected graphs and sources, with λ labels (λack on
// odd seeds: B ignores x3), arbitrary 2-bit labels and (b, ¬b) labels,
// fault-free and under every fault model, tracing on, and requires
// identical Results and traces.
func TestAlgBMatchesOracle(t *testing.T) {
	runs := 0
	for seed := int64(1); seed <= 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(40)
		g := graph.GNPConnected(n, 0.05+0.3*r.Float64(), seed)
		src := r.Intn(n)
		lambda := Lambda
		if seed%2 == 1 {
			lambda = LambdaAck
		}
		l, err := lambda(g, src, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, labels := range [][]Label{l.Labels, randomTwoBitLabels(r, n, false), randomTwoBitLabels(r, n, true)} {
			for fault := range numBFaults {
				c := bCase{g: g, source: src, labels: labels, fault: fault, seed: seed}
				if err := c.check(); err != nil {
					t.Fatalf("%v: %v", c, err)
				}
				runs++
			}
		}
	}
	if runs < 5000 {
		t.Fatalf("only %d runs compared", runs)
	}
}

// decodeBCase decodes a fuzz input. Byte 0 sets n = 2 + b%40, byte 1 the
// source, byte 2 the fault selector, byte 3 the model's seed and byte 4
// the labeling: λ, λack, or (otherwise) 2 bits per node read from the
// next ⌈n/4⌉ bytes. The remaining bytes are edge pairs; components left
// over are chained together, so every input decodes to a connected
// graph.
func decodeBCase(data []byte) (bCase, error) {
	var hdr [5]byte
	copy(hdr[:], data)
	data = data[min(len(data), len(hdr)):]
	n := 2 + int(hdr[0])%40
	packed := make([]byte, (n+3)/4)
	if hdr[4]%3 == 2 {
		k := copy(packed, data)
		data = data[k:]
	}
	g := graph.New(n)
	for i := 0; i+1 < len(data); i += 2 {
		if u, v := int(data[i])%n, int(data[i+1])%n; u != v {
			g.AddEdge(u, v)
		}
	}
	radiotest.Connect(g)
	c := bCase{g: g, source: int(hdr[1]) % n, fault: int(hdr[2]) % numBFaults, seed: int64(hdr[3])}
	switch hdr[4] % 3 {
	case 0, 1:
		lambda := Lambda
		if hdr[4]%3 == 1 {
			lambda = LambdaAck
		}
		l, err := lambda(g, c.source, BuildOptions{})
		if err != nil {
			return c, err
		}
		c.labels = l.Labels
	default:
		c.labels = make([]Label, n)
		for v := range c.labels {
			c.labels[v] = twoBitLabels[packed[v/4]>>(2*(v%4))&3]
		}
	}
	return c, nil
}

// FuzzAlgBMatchesOracle is TestAlgBMatchesOracle's comparison on fuzzed
// graphs, sources, labelings and fault models.
func FuzzAlgBMatchesOracle(f *testing.F) {
	for i, g := range []*graph.Graph{graph.Path(7), graph.Cycle(6), graph.Grid(3, 4), graph.Figure1(), graph.Star(9)} {
		for fault := range byte(numBFaults) {
			for mode := range byte(3) {
				data := []byte{byte(g.N() - 2), byte(i), fault, byte(i) + fault, mode}
				if mode == 2 {
					for range (g.N() + 3) / 4 {
						data = append(data, byte(37*(int(fault)+i)+11))
					}
				}
				for _, e := range g.Edges() {
					data = append(data, byte(e[0]), byte(e[1]))
				}
				f.Add(data)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := decodeBCase(data)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.check(); err != nil {
			t.Fatalf("%v: %v", c, err)
		}
	})
}
