// Package anonymity demonstrates the paper's impossibility argument (§1.1):
// without labels — i.e. when all nodes run the same deterministic program —
// broadcast is impossible even on the four-cycle. The two neighbours of the
// source have identical initial state and, by induction on rounds, identical
// histories: whenever one transmits, so does the other, so the fourth node
// only ever experiences collisions or silence and is never informed.
//
// The package turns that argument into an executable check: it runs any
// deterministic protocol factory on C4 and verifies (a) the two source
// neighbours act identically in every round and (b) the antipodal node is
// never informed, over a configurable horizon. A finite horizon cannot
// replace the induction, but the history argument shows that per-round
// equality of the neighbours' actions is invariant, so the check exercises
// exactly the proof's mechanism.
package anonymity

import (
	"radiobcast/internal/graph"
	"radiobcast/internal/radio"
)

// C4 node roles: source 0, its neighbours 1 and 3, antipode 2.
const (
	Source   = 0
	Left     = 1
	Antipode = 2
	Right    = 3
)

// Outcome reports what happened during a four-cycle run.
type Outcome struct {
	// Rounds is the horizon that was simulated.
	Rounds int
	// NeighboursSymmetric is true when nodes 1 and 3 took identical
	// actions in every round (the invariant of the impossibility proof).
	NeighboursSymmetric bool
	// AntipodeInformed is the round node 2 first heard a data message
	// (0 = never, which is what the impossibility predicts).
	AntipodeInformed int
	// AntipodeCollisions counts the collision rounds at node 2.
	AntipodeCollisions int
}

// Factory builds one protocol instance; isSource marks the source node.
// All four instances must run the same deterministic program — the factory
// models an unlabeled network, so it must not vary behaviour by node
// identity (only by isSource, which the model grants: the source knows it
// holds the message).
type Factory func(isSource bool) radio.Protocol

// RunFourCycle executes the factory's protocol on C4 for horizon rounds.
func RunFourCycle(factory Factory, horizon int) *Outcome {
	g := graph.Cycle(4)
	ps := make([]radio.Protocol, 4)
	for v := 0; v < 4; v++ {
		ps[v] = factory(v == Source)
	}
	sym := &symmetryChecker{}
	ps[Left] = sym.wrap(ps[Left], 0)
	ps[Right] = sym.wrap(ps[Right], 1)

	res := radio.Run(g, ps, radio.Options{MaxRounds: horizon})
	return &Outcome{
		Rounds:              res.Rounds,
		NeighboursSymmetric: !sym.diverged,
		AntipodeInformed:    res.FirstReception(Antipode, radio.KindData),
		AntipodeCollisions:  res.Collisions[Antipode],
	}
}

// symmetryChecker records both neighbours' steps per round and flags any
// divergence (which for a deterministic protocol with identical inputs
// would indicate hidden nondeterminism).
type symmetryChecker struct {
	steps    [2][]step
	diverged bool
}

// step is one round's decision: whether the node transmitted, and what.
type step struct {
	transmit bool
	msg      radio.Message
}

func (s *symmetryChecker) wrap(p radio.Protocol, idx int) radio.Protocol {
	return &symmetryWrapper{checker: s, idx: idx, inner: p}
}

type symmetryWrapper struct {
	checker *symmetryChecker
	idx     int
	inner   radio.Protocol
}

func (w *symmetryWrapper) Step(rcv, out *radio.Message) bool {
	st := step{transmit: w.inner.Step(rcv, out)}
	if st.transmit {
		st.msg = *out
	}
	c := w.checker
	c.steps[w.idx] = append(c.steps[w.idx], st)
	round := len(c.steps[w.idx])
	if other := c.steps[1-w.idx]; len(other) >= round && other[round-1] != st {
		c.diverged = true
	}
	return st.transmit
}

// PseudorandomProgram returns a Factory whose transmit decisions are an
// arbitrary deterministic function (keyed by seed) of the node's full
// history fingerprint. Sweeping seeds samples the space of deterministic
// anonymous protocols far beyond the natural ones.
func PseudorandomProgram(seed uint64) Factory {
	return func(isSource bool) radio.Protocol {
		return &prProtocol{seed: seed, isSource: isSource, fingerprint: initialFingerprint(isSource)}
	}
}

type prProtocol struct {
	seed        uint64
	isSource    bool
	round       int
	fingerprint uint64
	haveMsg     bool
	msg         string
}

func initialFingerprint(isSource bool) uint64 {
	if isSource {
		return 0x9e3779b97f4a7c15
	}
	return 0xbf58476d1ce4e5b9
}

func mix(h, v uint64) uint64 {
	h ^= v
	h *= 0x100000001b3
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return h
}

// Step transmits iff a hash of (seed, history) is even; the history
// fingerprint absorbs every reception, so the function is deterministic in
// exactly the inputs the model allows.
func (p *prProtocol) Step(rcv, out *radio.Message) bool {
	p.round++
	if rcv != nil {
		p.fingerprint = mix(p.fingerprint, uint64(rcv.Kind)+1)
		p.fingerprint = mix(p.fingerprint, uint64(len(rcv.Payload)))
		if rcv.Kind == radio.KindData && !p.haveMsg {
			p.haveMsg = true
			p.msg = rcv.Payload
		}
	} else {
		p.fingerprint = mix(p.fingerprint, 0)
	}
	decide := mix(p.seed, p.fingerprint)
	if decide&1 == 0 && (p.haveMsg || p.isSource) {
		*out = radio.Message{Kind: radio.KindData, Payload: p.msg}
		return true
	}
	return false
}
