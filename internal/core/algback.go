package core

import (
	"radiobcast/internal/radio"
)

// ackSpec fixes one use of the acknowledged-broadcast machine: algorithm
// Back itself, or one of Barb's three phases (§4.2).
type ackSpec struct {
	kind       radio.Kind // kind of the broadcast message
	phase      uint8      // phase tag on every message (0 for Back)
	timestamps bool       // broadcast and "stay" messages carry timestamps
	zAck       bool       // the x3 node z starts the ack chain
	zAckT      bool       // z's ack carries T = its informedRound in Aux
}

var (
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
// spec. It keeps no clock: callers pass the node-local round. Rounds are
// 1-based, so 0 means "never".
//
// Every timestamp a message carries equals the round it is sent in
// (Lemma 3.5; for a Barb phase, the round counted from the phase start),
// and the only retransmission rule fires two rounds after the previous
// transmission. So a node's own broadcast timestamps are the unbroken run
// firstTS, firstTS+2, …, lastTS, and two integers record them.
type ackMachine struct {
	label  Label
	spec   ackSpec
	origin bool  // the node starts this broadcast (Back's source, Barb's r)
	aux    int32 // Aux attached to the broadcast (phase 2 carries T)

	payload       string // payload being disseminated
	informedRound int32  // timestamp of the first reception
	firstRecv     int32  // round of the first reception
	lastDataTx    int32  // round of the last broadcast transmission
	firstTS       int32  // timestamps of the first and last broadcast
	lastTS        int32  // transmissions (0 = none carried one)
	ackRound      int32  // origin only: round its first ack arrived
}

// started reports whether the node has transmitted the broadcast yet; for
// the origin, whether it has started it.
func (m *ackMachine) started() bool { return m.lastDataTx != 0 }

// start is the origin's first transmission, in round r.
func (m *ackMachine) start(r int32, payload string, aux int32) radio.Action {
	m.payload, m.aux = payload, aux
	return m.transmit(r, 1)
}

// stamp is the timestamp field for t: t itself, or 0 when the spec
// attaches none.
func (m *ackMachine) stamp(t int32) int {
	if !m.spec.timestamps {
		return 0
	}
	return int(t)
}

// transmit sends the broadcast message in round r with timestamp ts.
func (m *ackMachine) transmit(r, ts int32) radio.Action {
	m.lastDataTx = r
	if m.spec.timestamps {
		if m.firstTS == 0 {
			m.firstTS = ts
		}
		m.lastTS = ts
	}
	return radio.Send(radio.Message{Kind: m.spec.kind, Payload: m.payload, TS: m.stamp(ts), Aux: int(m.aux), Phase: m.spec.phase})
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
	if msg.Phase != m.spec.phase {
		return
	}
	switch msg.Kind {
	case m.spec.kind:
		if m.firstRecv == 0 && !m.origin {
			m.payload, m.aux = msg.Payload, int32(msg.Aux)
			m.informedRound, m.firstRecv = int32(msg.TS), rr
		}
	case radio.KindAck:
		// The origin's ack reception ends the broadcast (§3.2).
		if m.origin && m.ackRound == 0 {
			m.ackRound = rr
		}
	}
}

// act is the machine's action for round r; heard is what the node heard
// in round r−1 (nil for nothing). It mirrors lines 12–31 of Algorithm 2.
func (m *ackMachine) act(r int32, heard *radio.Message) radio.Action {
	if !m.origin {
		switch m.firstRecv {
		case 0:
			return radio.Listen
		case r - 2: // lines 12-16
			if m.label.X1() {
				return m.transmit(r, m.informedRound+2)
			}
			return radio.Listen
		case r - 1: // lines 17-22
			if m.label.X3() && m.spec.zAck {
				aux := 0
				if m.spec.zAckT {
					aux = int(m.informedRound)
				}
				return radio.Send(radio.Message{Kind: radio.KindAck, TS: int(m.informedRound), Aux: aux, Phase: m.spec.phase})
			}
			if m.label.X2() {
				return radio.Send(radio.Message{Kind: radio.KindStay, TS: m.stamp(m.informedRound + 1), Phase: m.spec.phase})
			}
			return radio.Listen
		}
	}
	if heard == nil || heard.Phase != m.spec.phase {
		return radio.Listen
	}
	switch {
	case heard.Kind == radio.KindStay && m.started() && m.lastDataTx == r-2:
		// lines 23-27
		return m.transmit(r, int32(heard.TS)+1)
	case heard.Kind == radio.KindAck && !m.origin && m.sentWithTS(int32(heard.TS)):
		// lines 28-31: relay the ack with our own informedRound, keeping
		// what it carries (Barb's T or µ).
		return radio.Send(radio.Message{Kind: radio.KindAck, TS: int(m.informedRound), Aux: heard.Aux, Payload: heard.Payload, Phase: m.spec.phase})
	}
	return radio.Listen
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

// AlgBack is the acknowledged broadcast algorithm Back (Algorithm 2) run at
// a single node: algorithm B plus round-number timestamps (informedRound is
// the timestamp on the first received µ, Lemma 3.5) and an acknowledgement
// chain. The unique node with x3 = 1 starts an "ack" carrying its
// informedRound; a node that transmitted µ in exactly that round relays an
// ack carrying its own informedRound; the chain's round numbers strictly
// decrease (Lemma 3.7) until the source is reached.
type AlgBack struct {
	m     ackMachine
	round int32
}

// NewAlgBack returns node state for algorithm Back with a 3-bit λack label.
func NewAlgBack(label Label, sourceMsg *string) *AlgBack {
	a := &AlgBack{m: ackMachine{label: label, spec: backSpec}}
	if sourceMsg != nil {
		a.m.origin = true
		a.m.payload = *sourceMsg
	}
	return a
}

// Informed reports whether the node holds µ and its informedRound.
func (a *AlgBack) Informed() (bool, int) {
	switch {
	case a.m.origin:
		return true, 0
	case a.m.firstRecv != 0:
		return true, int(a.m.informedRound)
	}
	return false, 0
}

// AckRound returns, at the source, the round in which an "ack" first
// arrived (§3.2, Corollary 3.8), or 0 if none has.
func (a *AlgBack) AckRound() int { return int(a.m.ackRound) }

// Step implements radio.Protocol, mirroring Algorithm 2.
func (a *AlgBack) Step(rcv *radio.Message) radio.Action {
	a.round++
	if rcv != nil {
		a.m.receive(rcv, a.round-1)
	}
	if a.m.origin && !a.m.started() {
		// lines 4-5: the source transmits (µ, 1) in its first round.
		return a.m.start(a.round, a.m.payload, 0)
	}
	return a.m.act(a.round, rcv)
}

// NextWake implements radio.Waker. Like B, Back is reactive: beyond the
// source's opening transmission (round 1 is always stepped), its only
// spontaneous round is the machine's wake.
func (a *AlgBack) NextWake() int {
	if w := a.m.wake(); w > a.round {
		return int(w)
	}
	return radio.NeverWake
}

// Skip implements radio.Waker.
func (a *AlgBack) Skip(rounds int) { a.round += int32(rounds) }

// NewBackProtocols builds one AlgBack instance per node, carved from one
// bulk allocation.
func NewBackProtocols(labels []Label, source int, mu string) []radio.Protocol {
	nodes := make([]AlgBack, len(labels))
	ps := make([]radio.Protocol, len(labels))
	for v := range labels {
		var src *string
		if v == source {
			src = &mu
		}
		nodes[v] = *NewAlgBack(labels[v], src)
		ps[v] = &nodes[v]
	}
	return ps
}
