package core

import (
	"radiobcast/internal/radio"
)

// AlgBarb is the arbitrary-source algorithm of §4.2: the node labeled 111
// (the coordinator r chosen by λarb) drives three phases:
//
//  1. acknowledged broadcast of "initialize" from r; each node v stores the
//     timestamp t_v of its first "initialize"; the x3 node z appends T = t_z
//     to its ack, so r learns T when the ack arrives;
//  2. acknowledged broadcast of ("ready", T) from r, with z's ack
//     suppressed; instead the actual source sG, after receiving "ready",
//     waits T rounds and starts an ack chain carrying µ, so r learns µ;
//  3. plain broadcast (algorithm B) of µ from r. A node that receives µ in
//     this phase waits T − t_v further rounds, after which it knows that
//     every node has µ — all nodes reach this point in the same round,
//     which makes the broadcast acknowledged.
//
// When r itself holds µ, phase 2's ack fetch is unnecessary; r starts
// phase 3 after 2T+2 local rounds of phase 2, a documented benign deviation
// (see DESIGN.md).
type AlgBarb struct {
	label      Label
	isR        bool
	isMuSource bool
	mu         string
	haveMu     bool

	round int
	p     [3]*backPhase

	T     int
	haveT bool

	sgAckRound    int // absolute round at which sG transmits its phase-2 ack
	phase2StartAt int
	phase3StartAt int

	// MuKnownRound is the absolute round in which this node learned µ
	// (0 = held from the start). KnowsCompleteRound is the absolute round
	// from which the node knows that broadcast has completed (0 = not yet).
	MuKnownRound       int
	KnowsCompleteRound int
}

// NewAlgBarb returns node state for Barb. label is the λarb label; the node
// holding µ passes it via sourceMsg.
func NewAlgBarb(label Label, sourceMsg *string) *AlgBarb {
	a := &AlgBarb{label: label, isR: label == coordinatorLabel}
	if sourceMsg != nil {
		a.isMuSource = true
		a.haveMu = true
		a.mu = *sourceMsg
	}
	a.p[0] = newBackPhase(1, radio.KindInit, label, a.isR, true, true)
	a.p[1] = newBackPhase(2, radio.KindReady, label, a.isR, false, true)
	a.p[2] = newBackPhase(3, radio.KindData, label, a.isR, false, false)
	return a
}

// Mu returns the source message if known.
func (a *AlgBarb) Mu() (string, bool) { return a.mu, a.haveMu }

// TValue returns the learned T (valid once haveT).
func (a *AlgBarb) TValue() (int, bool) { return a.T, a.haveT }

// Step implements radio.Protocol.
func (a *AlgBarb) Step(rcv *radio.Message) radio.Action {
	a.round++
	r := a.round

	if rcv != nil {
		if ph := int(rcv.Phase); ph >= 1 && ph <= 3 {
			a.p[ph-1].receive(rcv, r-1)
			a.react(ph, rcv, r-1)
		}
	}

	// Coordinator bootstrapping and phase transitions.
	if a.isR {
		if !a.p[0].started {
			return a.p[0].start(r, "initialize", 0)
		}
		if a.phase2StartAt == r {
			return a.p[1].start(r, "", a.T)
		}
		if a.phase3StartAt == r {
			// Phase-3 start: r knows completion T−1 rounds after this
			// transmission (its own phase-local reception round is 0).
			a.KnowsCompleteRound = r + a.T - 1
			return a.p[2].start(r, a.mu, 0)
		}
	}

	// sG's deferred phase-2 acknowledgement carrying µ.
	if a.sgAckRound == r {
		return radio.Send(radio.Message{
			Kind: radio.KindAck, TS: a.p[1].informedRound, Payload: a.mu, Phase: 2,
		})
	}

	// Standard per-phase duties; later phases take precedence (by the
	// phase-separation argument at most one phase is active per round).
	for i := 2; i >= 0; i-- {
		if act := a.p[i].action(r); act.Transmit {
			return act
		}
	}
	return radio.Listen
}

// react handles the node-level consequences of a reception (recorded at
// round recvRound, processed at the next Step).
func (a *AlgBarb) react(ph int, m *radio.Message, recvRound int) {
	switch {
	case ph == 2 && m.Kind == radio.KindReady && !a.haveT:
		a.T = m.Aux
		a.haveT = true
		if a.isMuSource && !a.isR {
			// §4.2 step 2: wait T rounds after receiving "ready", then
			// start the ack chain carrying µ.
			a.sgAckRound = recvRound + a.T + 1
		}
	case ph == 3 && m.Kind == radio.KindData:
		if !a.haveMu {
			a.mu = m.Payload
			a.haveMu = true
			a.MuKnownRound = recvRound
		}
		// Every node (including sG, which already holds µ) starts its
		// completion wait at its first phase-3 reception: T − t_v rounds
		// after receiving µ in phase 3, all nodes know broadcast completed.
		if a.KnowsCompleteRound == 0 && a.haveT {
			tV := a.p[0].informedRound
			a.KnowsCompleteRound = recvRound + (a.T - tV)
		}
	case a.isR && ph == 1 && m.Kind == radio.KindAck && a.phase2StartAt == 0:
		// Phase 1 complete: the ack carries T.
		a.T = m.Aux
		a.haveT = true
		a.phase2StartAt = recvRound + 1
		if a.isMuSource {
			// r already holds µ: skip the phase-2 fetch and start phase 3
			// once phase 2 has certainly completed.
			a.phase3StartAt = a.phase2StartAt + 2*a.T + 2
		}
	case a.isR && ph == 2 && m.Kind == radio.KindAck && a.phase3StartAt == 0:
		// Phase 2 complete: the ack carries µ.
		a.mu = m.Payload
		a.haveMu = true
		a.MuKnownRound = recvRound
		a.phase3StartAt = recvRound + 1
	}
}

// NewBarbProtocols builds one AlgBarb per node. source is the node holding µ.
func NewBarbProtocols(labels []Label, source int, mu string) []radio.Protocol {
	ps := make([]radio.Protocol, len(labels))
	for v := range labels {
		var src *string
		if v == source {
			src = &mu
		}
		ps[v] = NewAlgBarb(labels[v], src)
	}
	return ps
}
