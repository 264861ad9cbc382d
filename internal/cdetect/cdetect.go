// Package cdetect implements the collision-detection remark of the paper's
// §1.1: "If collision detection is available, broadcast is trivially
// feasible, even in anonymous networks: consecutive bits of the source
// message can be transmitted by a sequence of silent and noisy rounds,
// using silence as 0 and a message or collision as 1."
//
// The protocol is fully anonymous — no labels, all non-source nodes run the
// same program — and works on every connected graph, in deliberate contrast
// with the four-cycle impossibility of the label-free model without
// collision detection (package anonymity).
//
// Mechanism (a distance-pipelined beep wave): let d(v) be v's BFS distance
// from the source and let bits[0..L-1] be the self-delimiting encoding of µ
// (a start bit, a 16-bit length field, then the payload bits). The source
// (distance class 0) transmits bit k in round 3k+1 iff bits[k] = 1; a node
// of class d first detects noise in round d (the start bit, which is always
// 1), thereby learning d, then reads bit k as the noise flag of round
// 3k + d and relays it in round 3k + d + 1. Classes are scheduled modulo 3,
// so a listener's only transmitting neighbours in its read rounds are in
// class d−1: noise ⟺ bit = 1, with no interference from its own class
// (same schedule) or class d+1 (round ≡ d+2 mod 3). Simultaneous
// transmissions within class d−1 are constructive — a collision still reads
// as "noise", which is exactly the paper's point.
package cdetect

import (
	"fmt"

	"radiobcast/internal/graph"
	"radiobcast/internal/radio"
)

// Encode converts µ to the bit stream sent on the channel: start bit 1,
// 16-bit big-endian payload length (in bits), then the payload MSB-first.
func Encode(mu string) []bool {
	payload := []byte(mu)
	l := 8 * len(payload)
	if l >= 1<<16 {
		panic(fmt.Sprintf("cdetect: message too long (%d bits)", l))
	}
	bits := make([]bool, 0, 17+l)
	bits = append(bits, true) // start bit
	for i := 15; i >= 0; i-- {
		bits = append(bits, l&(1<<uint(i)) != 0)
	}
	for _, b := range payload {
		for i := 7; i >= 0; i-- {
			bits = append(bits, b&(1<<uint(i)) != 0)
		}
	}
	return bits
}

// Decode inverts Encode. ok is false if the stream is malformed.
func Decode(bits []bool) (mu string, ok bool) {
	if len(bits) < 17 || !bits[0] {
		return "", false
	}
	l := 0
	for i := 1; i <= 16; i++ {
		l <<= 1
		if bits[i] {
			l |= 1
		}
	}
	if l%8 != 0 || len(bits) < 17+l {
		return "", false
	}
	payload := make([]byte, l/8)
	for i := 0; i < l; i++ {
		if bits[17+i] {
			payload[i/8] |= 1 << uint(7-i%8)
		}
	}
	return string(payload), true
}

// Beep is the anonymous collision-detection protocol run at each node.
// All nodes are identical except that the source holds µ.
type Beep struct {
	isSource bool
	bits     []bool // source: full encoding; others: filled in as read

	round    int
	synced   bool
	d        int // first-noise round = BFS distance class
	expected int // number of bits the stream will carry (known after header)

	// Done reports the node decoded µ; Mu is the decoded payload;
	// DoneRound is the round its final bit arrived.
	Done      bool
	Mu        string
	DoneRound int
}

// NewBeep builds the protocol; sourceMsg is non-nil at the source only.
func NewBeep(sourceMsg *string) *Beep {
	b := &Beep{expected: -1}
	if sourceMsg != nil {
		b.isSource = true
		b.bits = Encode(*sourceMsg)
		b.Mu = *sourceMsg
		b.Done = true
	}
	return b
}

// beepMsg is the (contentless) frame used for noise; its payload is never
// read — only the busy flag matters.
var beepMsg = radio.Message{Kind: radio.KindData}

// Step satisfies radio.Protocol so Beep fits the engine's protocol slice;
// the engine always routes collision-detection protocols through StepNoise,
// so this must never be called.
func (b *Beep) Step(_, _ *radio.Message) bool {
	panic("cdetect: Beep needs the collision-detection engine path (StepNoise)")
}

// StepNoise implements radio.NoiseProtocol.
func (b *Beep) StepNoise(_ *radio.Message, busyPrev bool, out *radio.Message) bool {
	b.round++
	r := b.round

	if b.isSource {
		// Transmit bit k in round 3k+1.
		if (r-1)%3 == 0 {
			k := (r - 1) / 3
			if k < len(b.bits) && b.bits[k] {
				*out = beepMsg
				return true
			}
		}
		return false
	}

	// Synchronisation: the first noise ever heard is the start bit,
	// arriving in round d (processed at Step d+1). Fall through: round
	// d+1 is also this node's relay round for bit 0.
	if !b.synced {
		if !busyPrev {
			return false
		}
		b.synced = true
		b.d = r - 1
		b.bits = append(b.bits, true) // bit 0 = start bit
	}

	// Read rounds: bit k arrives in round 3k + d; we see its flag while
	// deciding round 3k + d + 1 — which is also the relay round for bit k.
	if (r-1-b.d)%3 == 0 && r-1 > b.d {
		k := (r - 1 - b.d) / 3
		if k == len(b.bits) && !b.finished() {
			b.bits = append(b.bits, busyPrev)
			b.afterRead(r - 1)
		}
	}
	// Relay round for bit k is 3k + d + 1.
	if (r-b.d-1)%3 == 0 {
		k := (r - b.d - 1) / 3
		if k < len(b.bits) && b.bits[k] {
			*out = beepMsg
			return true
		}
	}
	return false
}

// finished reports whether all expected bits have been read.
func (b *Beep) finished() bool {
	return b.expected >= 0 && len(b.bits) >= b.expected
}

func (b *Beep) afterRead(round int) {
	if b.expected < 0 && len(b.bits) == 17 {
		// Header complete: learn the stream length.
		l := 0
		for i := 1; i <= 16; i++ {
			l <<= 1
			if b.bits[i] {
				l |= 1
			}
		}
		b.expected = 17 + l
	}
	if b.finished() && !b.Done {
		if mu, ok := Decode(b.bits); ok {
			b.Done = true
			b.Mu = mu
			b.DoneRound = round
		}
	}
}

// Outcome summarises an anonymous collision-detection broadcast.
type Outcome struct {
	Result      *radio.Result
	Mu          string
	AllDecoded  bool
	DoneRound   []int // per node round its last bit arrived (0 = source)
	TotalRounds int
	BitsSent    int // length of the encoded stream
}

// Run broadcasts mu from source over g using the anonymous beep protocol
// and verifies every node decodes it.
func Run(g *graph.Graph, source int, mu string) (*Outcome, error) {
	n := g.N()
	ps := make([]radio.Protocol, n)
	nodes := make([]*Beep, n)
	for v := 0; v < n; v++ {
		var src *string
		if v == source {
			src = &mu
		}
		nodes[v] = NewBeep(src)
		ps[v] = nodes[v]
	}
	bits := len(Encode(mu))
	ecc := g.Eccentricity(source)
	maxRounds := 3*(bits+2) + ecc + 6
	res := radio.Run(g, ps, radio.Options{
		MaxRounds: maxRounds,
		Stop: func(int) bool {
			for _, nd := range nodes {
				if !nd.Done {
					return false
				}
			}
			return true
		},
	})
	out := &Outcome{Result: res, Mu: mu, AllDecoded: true, DoneRound: make([]int, n), TotalRounds: res.Rounds, BitsSent: bits}
	for v, nd := range nodes {
		if !nd.Done || nd.Mu != mu {
			out.AllDecoded = false
		}
		out.DoneRound[v] = nd.DoneRound
	}
	if !out.AllDecoded {
		return out, fmt.Errorf("cdetect: broadcast incomplete after %d rounds", res.Rounds)
	}
	return out, nil
}
