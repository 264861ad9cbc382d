// Package radio implements the communication model of the paper (§1.1):
// synchronous rounds over an undirected graph, where a listening node hears
// a message if and only if exactly one of its neighbours transmits in that
// round. There is no collision detection: silence and collision are
// indistinguishable to the listener. The package provides the message
// format with bit-size accounting, the deterministic per-node Protocol
// interface, the engine (a word-parallel bitset core, see bitsim.go), and
// trace capture used to reproduce the paper's Figure 1.
package radio

import (
	"fmt"
	"math/bits"
)

// Kind identifies the role of a message. The paper's algorithms use the
// source message µ ("data"), a constant-size "stay" message (§2), an "ack"
// message (§3), and the "initialize"/"ready" coordination messages of the
// arbitrary-source algorithm (§4).
type Kind uint8

const (
	KindData Kind = iota
	KindStay
	KindAck
	KindInit
	KindReady
	numKinds
)

// String returns the paper's name for the kind.
func (k Kind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindStay:
		return "stay"
	case KindAck:
		return "ack"
	case KindInit:
		return "initialize"
	case KindReady:
		return "ready"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Message is a transmitted frame. Phase tags Barb's three phases.
// Payload carries the source message µ where applicable. TS is the
// round-number timestamp appended by the acknowledged algorithms (Lemma
// 3.5); Aux carries the T value of the arbitrary-source algorithm. Unused
// fields are zero and contribute nothing to BitLen. Phase sits beside
// Kind so that the two bytes share one word: a Message is 40 bytes and a
// Reception 48.
type Message struct {
	Kind    Kind
	Phase   uint8
	Payload string
	TS      int
	Aux     int
}

// BitLen returns the size of the message in bits, charging 3 bits for the
// kind, 8 bits per payload byte, the binary length of each non-zero
// integer field, and 2 bits for a non-zero phase tag. This implements the
// paper's message-size accounting: algorithm B transmits O(1)+|µ| bits,
// while Back adds an O(log n) timestamp.
func (m *Message) BitLen() int {
	n := 3 + 8*len(m.Payload)
	if m.TS > 0 {
		n += bits.Len(uint(m.TS))
	}
	if m.Aux > 0 {
		n += bits.Len(uint(m.Aux))
	}
	if m.Phase > 0 {
		n += 2
	}
	return n
}

// String renders the message in the paper's notation, e.g. (µ, 5).
func (m *Message) String() string {
	body := m.Kind.String()
	if m.Kind == KindData && m.Payload != "" {
		body = fmt.Sprintf("%q", m.Payload)
	}
	if m.TS > 0 {
		return fmt.Sprintf("(%s, %d)", body, m.TS)
	}
	return fmt.Sprintf("(%s)", body)
}

// Protocol is the deterministic state machine run at each node. Step is
// called once per round r = 1, 2, ...; received is the message the node
// heard in round r−1, or nil for round 1, for silence, for collision, or
// if the node itself transmitted in round r−1 (all indistinguishable in
// the model). A node that transmits in round r sets *out to the whole
// message and returns true; a node that listens returns false, and the
// engine ignores *out. Implementations must base decisions only on their
// label and message history — never on the topology — to qualify as
// universal algorithms in the paper's sense.
//
// received and out point into engine-owned buffers: they are valid only
// for the duration of the Step call, so implementations copy out what
// they keep (copying the Message value is enough), and out may hold an
// earlier round's message on entry. Protocols may additionally
// implement Waker, in which case the engine may replace runs of
// guaranteed-silent Step calls with one Skip call (see Waker).
type Protocol interface {
	Step(received, out *Message) bool
}

// NoiseProtocol is the collision-detection variant of the model (§1.1 of
// the paper: "If collision detection is available, broadcast is trivially
// feasible, even in anonymous networks"). A protocol implementing this
// interface receives, in addition to the delivered message (nil on silence
// or collision, as usual), a busy flag that is true iff at least one
// neighbour transmitted in the previous round — i.e. the node can
// distinguish silence from noise. The engine uses StepNoise instead of
// Step for such protocols; out and the result are Step's.
type NoiseProtocol interface {
	StepNoise(received *Message, busy bool, out *Message) bool
}
