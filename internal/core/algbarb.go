package core

import (
	"radiobcast/internal/radio"
)

// AlgBarb is the arbitrary-source algorithm of §4.2: the node labeled 111
// (the coordinator r chosen by λarb) drives three phases, each one run of
// the acknowledged-broadcast machine that also runs B and Back
// (barbSpecs):
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
	p [3]ackMachine // phases 1–3

	mu         string // µ, once known: from the start at sG, from the phase-2 ack at r
	isR        bool
	isMuSource bool
	haveT      bool

	round         int32
	t             int32 // T, once haveT
	sgAckRound    int32 // round in which sG transmits its phase-2 ack
	phase2StartAt int32
	phase3StartAt int32

	// KnowsCompleteRound is the absolute round from which the node knows
	// that broadcast has completed (0 = not yet).
	KnowsCompleteRound int
}

// TValue returns the learned T, if any.
func (a *AlgBarb) TValue() (int, bool) { return int(a.t), a.haveT }

// Step implements radio.Protocol.
func (a *AlgBarb) Step(rcv, out *radio.Message) bool {
	a.round++
	r := a.round

	if rcv != nil {
		for i := range a.p {
			a.p[i].receive(rcv, r-1)
		}
		a.react(rcv, r-1)
	}

	// Coordinator bootstrapping and phase transitions.
	if a.isR {
		if !a.p[0].started() {
			return a.p[0].start(r, "initialize", 0, out)
		}
		if a.phase2StartAt == r {
			return a.p[1].start(r, "", a.t, out)
		}
		if a.phase3StartAt == r {
			// Phase-3 start: r knows completion T−1 rounds after this
			// transmission (its own phase-local reception round is 0).
			a.KnowsCompleteRound = int(r + a.t - 1)
			return a.p[2].start(r, a.mu, 0, out)
		}
	}

	// sG's deferred phase-2 acknowledgement carrying µ.
	if a.sgAckRound == r {
		*out = radio.Message{Kind: radio.KindAck, TS: int(a.p[1].informedRound), Payload: a.mu, Phase: 2}
		return true
	}

	// Standard per-phase duties; later phases take precedence (by the
	// phase-separation argument at most one phase is active per round).
	for i := 2; i >= 0; i-- {
		if a.p[i].act(r, rcv, out) {
			return true
		}
	}
	return false
}

// react handles the node-level consequences of a reception (recorded at
// round rr, processed at the next Step).
func (a *AlgBarb) react(m *radio.Message, rr int32) {
	switch {
	case m.Phase == 2 && m.Kind == radio.KindReady && !a.haveT:
		a.t = int32(m.Aux)
		a.haveT = true
		if a.isMuSource && !a.isR {
			// §4.2 step 2: wait T rounds after receiving "ready", then
			// start the ack chain carrying µ.
			a.sgAckRound = rr + a.t + 1
		}
	case m.Phase == 3 && m.Kind == radio.KindData:
		// Every node (including sG, which already holds µ) starts its
		// completion wait at its first phase-3 reception: T − t_v rounds
		// after receiving µ in phase 3, all nodes know broadcast completed.
		if a.KnowsCompleteRound == 0 && a.haveT {
			a.KnowsCompleteRound = int(rr + a.t - a.p[0].informedRound)
		}
	case a.isR && m.Phase == 1 && m.Kind == radio.KindAck && a.phase2StartAt == 0:
		// Phase 1 complete: the ack carries T.
		a.t = int32(m.Aux)
		a.haveT = true
		a.phase2StartAt = rr + 1
		if a.isMuSource {
			// r already holds µ: skip the phase-2 fetch and start phase 3
			// once phase 2 has certainly completed.
			a.phase3StartAt = a.phase2StartAt + 2*a.t + 2
		}
	case a.isR && m.Phase == 2 && m.Kind == radio.KindAck && a.phase3StartAt == 0:
		// Phase 2 complete: the ack carries µ.
		a.mu = m.Payload
		a.phase3StartAt = rr + 1
	}
}

// NextWake implements radio.Waker. Barb's spontaneous rounds are the
// coordinator's phase starts (phase 1 starts in round 1, which is always
// stepped), sG's deferred ack and the three machines' wakes; everything
// else answers a reception. KnowsCompleteRound is computed at a
// reception, so it needs no step.
func (a *AlgBarb) NextWake() int {
	next := int32(radio.NeverWake)
	for _, w := range [...]int32{
		a.phase2StartAt, a.phase3StartAt, a.sgAckRound,
		a.p[0].wake(), a.p[1].wake(), a.p[2].wake(),
	} {
		if w > a.round && (next == radio.NeverWake || w < next) {
			next = w
		}
	}
	return int(next)
}

// Skip implements radio.Waker.
func (a *AlgBarb) Skip(rounds int) { a.round += int32(rounds) }

// NewBarbProtocols builds one AlgBarb per node for the λarb labels, in
// a pooled slab like NewBProtocols. source is the node holding µ. Every
// node is assigned whole, so no state of the slab's last run survives.
func NewBarbProtocols(labels []Label, source int, mu string) (ps []radio.Protocol, release func()) {
	s := takeSlab[AlgBarb](&barbSlabs, len(labels))
	for v, lab := range labels {
		a := &s.nodes[v]
		*a = AlgBarb{isR: lab == CoordinatorLabel}
		for i := range a.p {
			a.p[i] = ackMachine{label: lab, spec: barbSpecs[i], origin: a.isR}
		}
		if v == source {
			a.mu, a.isMuSource = mu, true
		}
		s.ps[v] = a
	}
	return s.ps, func() { s.put(&barbSlabs) }
}
