package core

import (
	"radiobcast/internal/radio"
)

// ackSpec fixes one use of the acknowledged-broadcast machine: algorithm
// B, algorithm Back, or one of Barb's three phases (§4.2).
type ackSpec struct {
	kind       radio.Kind // kind of the broadcast message
	phase      uint8      // phase tag on every message (0 for B and Back)
	timestamps bool       // broadcast and "stay" messages carry timestamps
	zAck       bool       // the x3 node z starts the ack chain
	zAckT      bool       // z's ack carries T = its informedRound in Aux
}

var (
	// bSpec is algorithm B (Algorithm 1): Algorithm 2 without timestamps
	// and without an ack, so x3 is ignored.
	bSpec    = ackSpec{kind: radio.KindData}
	backSpec = ackSpec{kind: radio.KindData, timestamps: true, zAck: true}

	// barbSpecs are Barb's phases: "initialize" acknowledged by z with T,
	// ("ready", T) acknowledged by sG instead of z, and plain B of µ.
	barbSpecs = [3]ackSpec{
		{kind: radio.KindInit, phase: 1, timestamps: true, zAck: true, zAckT: true},
		{kind: radio.KindReady, phase: 2, timestamps: true},
		{kind: radio.KindData, phase: 3},
	}
)

// ackMachine is Algorithm 2's acknowledged broadcast at one node, for one
// spec. Algorithm 1 (B) is Algorithm 2 without timestamps and without the
// ack chain, so bSpec runs it on the same rules. The machine keeps no
// clock: callers pass the node-local round. Rounds are 1-based, so 0
// means "never".
//
// Every timestamp a message carries equals the round it is sent in
// (Lemma 3.5; for a Barb phase, the round counted from the phase start),
// and the only retransmission rule fires two rounds after the previous
// transmission. So a node's own broadcast timestamps are the unbroken run
// firstTS, firstTS+2, …, lastTS, and two integers record them.
type ackMachine struct {
	label  Label
	spec   ackSpec
	origin bool  // the node starts this broadcast (the source, Barb's r)
	aux    int32 // Aux attached to the broadcast (phase 2 carries T)

	payload       string // payload being disseminated
	informedRound int32  // timestamp of the first reception
	firstRecv     int32  // round of the first reception
	lastDataTx    int32  // round of the last broadcast transmission
	firstTS       int32  // timestamps of the first and last broadcast
	lastTS        int32  // transmissions (0 = none carried one)
}

// started reports whether the node has transmitted the broadcast yet; for
// the origin, whether it has started it.
func (m *ackMachine) started() bool { return m.lastDataTx != 0 }

// The machine's decisions follow radio.Protocol's step contract: they
// write the message to send through out and report whether the node
// transmits, so Step hands the engine's out pointer straight down.

// start is the origin's first transmission, in round r.
func (m *ackMachine) start(r int32, payload string, aux int32, out *radio.Message) bool {
	m.payload, m.aux = payload, aux
	return m.transmit(r, 1, out)
}

// stamp is the timestamp field for t: t itself, or 0 when the spec
// attaches none.
func (m *ackMachine) stamp(t int32) int {
	if !m.spec.timestamps {
		return 0
	}
	return int(t)
}

// transmit sets *out to the broadcast message for round r, with
// timestamp ts, and reports true.
func (m *ackMachine) transmit(r, ts int32, out *radio.Message) bool {
	m.lastDataTx = r
	if m.spec.timestamps {
		if m.firstTS == 0 {
			m.firstTS = ts
		}
		m.lastTS = ts
	}
	*out = radio.Message{Kind: m.spec.kind, Payload: m.payload, TS: m.stamp(ts), Aux: int(m.aux), Phase: m.spec.phase}
	return true
}

// sentWithTS reports whether the node transmitted the broadcast with
// timestamp ts (see ackMachine for why the parity test is exact).
func (m *ackMachine) sentWithTS(ts int32) bool {
	return m.lastTS != 0 && m.firstTS <= ts && ts <= m.lastTS && (ts-m.firstTS)%2 == 0
}

// receive records msg, heard in round rr, if it belongs to this machine's
// broadcast. Algorithm 2 adopts any message other than "stay"; restricting
// adoption to the broadcast kind is equivalent by Observation 3.3.
func (m *ackMachine) receive(msg *radio.Message, rr int32) {
	if msg.Phase == m.spec.phase && msg.Kind == m.spec.kind && m.firstRecv == 0 && !m.origin {
		m.payload, m.aux = msg.Payload, int32(msg.Aux)
		m.informedRound, m.firstRecv = int32(msg.TS), rr
	}
}

// act is the machine's decision for round r; heard is what the node heard
// in round r−1 (nil for nothing). It mirrors lines 12–31 of Algorithm 2.
func (m *ackMachine) act(r int32, heard *radio.Message, out *radio.Message) bool {
	if !m.origin {
		switch m.firstRecv {
		case 0:
			return false
		case r - 2: // lines 12-16
			return m.label.X1() && m.transmit(r, m.informedRound+2, out)
		case r - 1: // lines 17-22
			if m.label.X3() && m.spec.zAck {
				aux := 0
				if m.spec.zAckT {
					aux = int(m.informedRound)
				}
				*out = radio.Message{Kind: radio.KindAck, TS: int(m.informedRound), Aux: aux, Phase: m.spec.phase}
				return true
			}
			if m.label.X2() {
				*out = radio.Message{Kind: radio.KindStay, TS: m.stamp(m.informedRound + 1), Phase: m.spec.phase}
				return true
			}
			return false
		}
	}
	if heard == nil || heard.Phase != m.spec.phase {
		return false
	}
	switch {
	case heard.Kind == radio.KindStay && m.started() && m.lastDataTx == r-2:
		// lines 23-27
		return m.transmit(r, int32(heard.TS)+1, out)
	case heard.Kind == radio.KindAck && !m.origin && m.sentWithTS(int32(heard.TS)):
		// lines 28-31: relay the ack with our own informedRound, keeping
		// what it carries (Barb's T or µ).
		*out = radio.Message{Kind: radio.KindAck, TS: int(m.informedRound), Aux: heard.Aux, Payload: heard.Payload, Phase: m.spec.phase}
		return true
	}
	return false
}

// wake is the round of the machine's only spontaneous decision, an x1
// node's transmission two rounds after its first reception, or 0 if it
// has none. The decision one round after that reception is taken in the
// Step that processes it, and every other action answers a "stay" or an
// "ack" heard one round earlier, which forces a step by itself.
func (m *ackMachine) wake() int32 {
	if m.firstRecv == 0 || !m.label.X1() {
		return 0
	}
	return m.firstRecv + 2
}

// AckNode runs one acknowledged-broadcast machine at a single node: a
// machine plus a round counter. With bSpec it is algorithm B (Algorithm
// 1): decisions depend only on the 2-bit label and on the rounds in which
// the node heard µ or "stay". With backSpec it is algorithm Back
// (Algorithm 2): B plus round-number timestamps (informedRound is the
// timestamp on the first received µ, Lemma 3.5) and an acknowledgement
// chain. The unique node with x3 = 1 starts an "ack" carrying its
// informedRound; a node that transmitted µ in exactly that round relays an
// ack carrying its own informedRound; the chain's round numbers strictly
// decrease (Lemma 3.7) until the source is reached.
type AckNode struct {
	m     ackMachine
	round int32
}

// NewAlgB returns node state for algorithm B with a 2-bit λ label (a
// longer label's x3 is ignored). A node is the source iff sourceMsg is
// non-nil.
func NewAlgB(label Label, sourceMsg *string) *AckNode {
	return newAckNode(label, sourceMsg, bSpec)
}

func newAckNode(label Label, sourceMsg *string, spec ackSpec) *AckNode {
	a := &AckNode{m: ackMachine{label: label, spec: spec}}
	if sourceMsg != nil {
		a.m.origin = true
		a.m.payload = *sourceMsg
	}
	return a
}

// Informed reports whether the node holds µ and the round it first
// received it (0 for the source). Under Back that round is also the
// node's informedRound (Lemma 3.5).
func (a *AckNode) Informed() (bool, int) {
	switch {
	case a.m.origin:
		return true, 0
	case a.m.firstRecv != 0:
		return true, int(a.m.firstRecv)
	}
	return false, 0
}

// Step implements radio.Protocol, mirroring Algorithm 1 or 2. Its only
// call into the machine is act; receive and transmit inline.
func (a *AckNode) Step(rcv, out *radio.Message) bool {
	a.round++
	m := &a.m
	if rcv != nil {
		m.receive(rcv, a.round-1)
	}
	if m.origin && !m.started() {
		// lines 4-5: the source transmits (µ, 1) in its first round.
		return m.transmit(a.round, 1, out)
	}
	return m.act(a.round, rcv, out)
}

// NextWake implements radio.Waker. B and Back are reactive: beyond the
// source's opening transmission (round 1 is always stepped), a node's
// only spontaneous round is the machine's wake.
func (a *AckNode) NextWake() int {
	if w := a.m.wake(); w > a.round {
		return int(w)
	}
	return radio.NeverWake
}

// Skip implements radio.Waker.
func (a *AckNode) Skip(rounds int) { a.round += int32(rounds) }

// NewBProtocols builds one algorithm-B node per node for the given
// labeling and source message. The nodes live in a pooled slab: release
// returns it to the pool, after which the protocols must not be used. A
// caller that never calls release leaves the slab to the garbage
// collector.
func NewBProtocols(labels []Label, source int, mu string) (ps []radio.Protocol, release func()) {
	return newAckProtocols(labels, source, mu, bSpec)
}

// NewBackProtocols builds one algorithm-Back node per node, in a pooled
// slab like NewBProtocols.
func NewBackProtocols(labels []Label, source int, mu string) (ps []radio.Protocol, release func()) {
	return newAckProtocols(labels, source, mu, backSpec)
}

// newAckProtocols sets one AckNode per label in a slab from ackSlabs.
// Every node is assigned whole, so no state of the slab's last run
// survives.
func newAckProtocols(labels []Label, source int, mu string, spec ackSpec) ([]radio.Protocol, func()) {
	s := takeSlab[AckNode](&ackSlabs, len(labels))
	for v, lab := range labels {
		s.nodes[v] = AckNode{m: ackMachine{label: lab, spec: spec, origin: v == source}}
		if v == source {
			s.nodes[v].m.payload = mu
		}
		s.ps[v] = &s.nodes[v]
	}
	return s.ps, func() { s.put(&ackSlabs) }
}
