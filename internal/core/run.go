package core

import (
	"fmt"

	"radiobcast/internal/graph"
	"radiobcast/internal/radio"
)

// BroadcastOutcome summarises a run of algorithm B.
type BroadcastOutcome struct {
	Result *radio.Result
	// InformedRound[v] is the round in which v first received µ (0 for the
	// source). AllInformed is true when every node received µ.
	InformedRound []int
	AllInformed   bool
	// CompletionRound is the largest InformedRound (the t of Theorem 2.9).
	CompletionRound int
	// Stages is the construction underlying the labels (nil for Barb,
	// whose checks do not read it).
	Stages *Stages
}

// PlanBroadcast returns what a B execution runs: the protocol vector,
// the scheme's base engine options, on which callers set their own engine
// knobs, and the release of the protocols' pooled slab (see
// NewBProtocols). A run is exactly plan → radio.Run → AssembleBroadcast →
// release. MaxRounds defaults to 2n+4, comfortably above the paper's
// 2n−3 bound.
func PlanBroadcast(g *graph.Graph, labels []Label, source int, mu string) (ps []radio.Protocol, base radio.Options, release func()) {
	ps, release = NewBProtocols(labels, source, mu)
	return ps, radio.Options{MaxRounds: 2*g.N() + 4, StopAfterSilent: 3}, release
}

// AssembleBroadcast turns the Result of running PlanBroadcast's protocols
// over the labels of stages st into the outcome.
func AssembleBroadcast(res *radio.Result, st *Stages, source int) *BroadcastOutcome {
	out := &BroadcastOutcome{}
	assembleInformed(out, res, st, source, -1)
	return out
}

// assembleInformed fills the broadcast half of an outcome from the
// engine Result; coordinator is Informed's.
func assembleInformed(out *BroadcastOutcome, res *radio.Result, st *Stages, source, coordinator int) {
	out.Result, out.Stages = res, st
	out.InformedRound, out.AllInformed, out.CompletionRound = Informed(res, source, coordinator)
}

// Informed reads who a run informed from its Result, the one record of
// it: rounds[v] is node v's first reception that carries µ, 0 for the
// source and for a node never informed; all reports whether every other
// node was informed; last is the largest entry, the completion round of
// a complete broadcast. A data message carries µ, and so does the
// phase-2 ack that fetches µ to Barb's coordinator r (§4.2) when r hears
// it: coordinator is r, or −1 for the schemes without one. A reception a
// crash wiped is not in the Result, so it informs no one. Every scheme
// reads its outcome through here.
func Informed(res *radio.Result, source, coordinator int) (rounds []int, all bool, last int) {
	rounds = make([]int, res.N())
	all = true
	for v := range rounds {
		if v == source {
			continue
		}
		for _, rec := range res.Receives(v) {
			if carriesMu(&rec.Msg, v, coordinator) {
				rounds[v] = rec.Round
				break
			}
		}
		if rounds[v] == radio.NoReception {
			all = false
		}
		last = max(last, rounds[v])
	}
	return rounds, all, last
}

// carriesMu reports whether msg, heard by node v, carries µ (see
// Informed).
func carriesMu(msg *radio.Message, v, coordinator int) bool {
	return msg.Kind == radio.KindData || v == coordinator && msg.Kind == radio.KindAck && msg.Phase == 2
}

// checkPayloads returns an error for the first reception carrying µ
// whose payload is not mu.
func checkPayloads(res *radio.Result, coordinator int, mu string) error {
	for v := range res.N() {
		for _, rec := range res.Receives(v) {
			if carriesMu(&rec.Msg, v, coordinator) && rec.Msg.Payload != mu {
				return fmt.Errorf("core: node %d received payload %q, want %q", v, rec.Msg.Payload, mu)
			}
		}
	}
	return nil
}

// VerifyBroadcast checks the outcome against the paper's guarantees:
// everyone informed, within 2n−3 rounds (Theorem 2.9), with each node
// informed exactly in round 2i−1 for its stage i (Lemma 2.8), and all
// received payloads equal to µ.
func VerifyBroadcast(out *BroadcastOutcome, mu string) error {
	n := len(out.InformedRound)
	if !out.AllInformed {
		return fmt.Errorf("core: broadcast incomplete: %v", out.InformedRound)
	}
	if n >= 2 && out.CompletionRound > 2*n-3 {
		return fmt.Errorf("core: completion round %d exceeds 2n−3 = %d", out.CompletionRound, 2*n-3)
	}
	// The NEW lists are disjoint (Lemma 2.3), so n−1 entries that each
	// pass are every node but the source, the one node informed in round 0.
	listed := 0
	for i := 1; i <= out.Stages.NumStored(); i++ {
		_, nw := out.Stages.Lists(i)
		for _, v := range nw {
			if want := 2*i - 1; out.InformedRound[v] != want {
				return fmt.Errorf("core: node %d informed in round %d, Lemma 2.8 predicts %d", v, out.InformedRound[v], want)
			}
		}
		listed += len(nw)
	}
	if listed != n-1 {
		return fmt.Errorf("core: the NEW lists hold %d nodes, want the %d non-source nodes", listed, n-1)
	}
	return checkPayloads(out.Result, -1, mu)
}

// AckOutcome summarises a run of algorithm Back.
type AckOutcome struct {
	BroadcastOutcome
	// AckRound is the round in which the source received an "ack"
	// (the t′ of Theorem 3.9), its first ack reception in Result; 0 if it
	// never arrived.
	AckRound int
}

// PlanAcknowledged is PlanBroadcast for a Back execution.
func PlanAcknowledged(g *graph.Graph, labels []Label, source int, mu string) (ps []radio.Protocol, base radio.Options, release func()) {
	ps, release = NewBackProtocols(labels, source, mu)
	return ps, radio.Options{MaxRounds: 3*g.N() + 6, StopAfterSilent: 3}, release
}

// AssembleAcknowledged turns the Result of running PlanAcknowledged's
// protocols into the outcome: the broadcast half as AssembleBroadcast
// reads it, and the source's first ack reception.
func AssembleAcknowledged(res *radio.Result, st *Stages, source int) *AckOutcome {
	out := &AckOutcome{AckRound: res.FirstReception(source, radio.KindAck)}
	assembleInformed(&out.BroadcastOutcome, res, st, source, -1)
	return out
}

// VerifyAcknowledged checks Theorem 3.9 and Corollary 3.8: broadcast
// completes by t ≤ 2n−3; the source's ack arrives in a round
// t′ ∈ {2ℓ−2, …, 3ℓ−4}; and the ack arrives strictly after completion.
func VerifyAcknowledged(out *AckOutcome, mu string) error {
	if err := VerifyBroadcast(&out.BroadcastOutcome, mu); err != nil {
		return err
	}
	n := len(out.InformedRound)
	if n < 2 {
		return nil // no acknowledgement needed for a single node
	}
	if out.AckRound == 0 {
		return fmt.Errorf("core: source never received an ack")
	}
	if out.AckRound <= out.CompletionRound {
		return fmt.Errorf("core: ack round %d not after completion round %d", out.AckRound, out.CompletionRound)
	}
	l := out.Stages.L
	lo, hi := 2*l-2, 3*l-4
	if hi < lo {
		hi = lo // ℓ = 2: the window degenerates to {2ℓ−2}
	}
	if out.AckRound < lo || out.AckRound > hi {
		return fmt.Errorf("core: ack round %d outside Corollary 3.8 window [%d,%d] (ℓ=%d)", out.AckRound, lo, hi, l)
	}
	return nil
}

// ArbOutcome summarises a run of Barb. Its broadcast half reads the
// Result as AssembleBroadcast does, with the coordinator informed by the
// ack that carries µ (see Informed).
type ArbOutcome struct {
	BroadcastOutcome
	// R is the coordinator: the node whose protocol ran as r, the one
	// labeled 111 (−1 if none was).
	R int
	// KnowsCompleteRound[v]: absolute round from which v knows broadcast
	// completed (0 = never); for correct runs all entries are equal.
	KnowsCompleteRound []int
	TotalRounds        int
	T                  int
}

// PlanArbitrary is PlanBroadcast for a Barb execution. The base Stop
// predicate reads per-node protocol state, so it must only stop a run of
// exactly the returned protocol vector. Errors for n < 2 (Barb needs a
// coordinator and at least one other node).
func PlanArbitrary(g *graph.Graph, labels []Label, source int, mu string) (ps []radio.Protocol, base radio.Options, release func(), err error) {
	n := g.N()
	if n < 2 {
		return nil, radio.Options{}, nil, fmt.Errorf("core: Barb needs n ≥ 2")
	}
	nodes, release := NewBarbProtocols(labels, source, mu)
	base = radio.Options{
		MaxRounds: 14*n + 40,
		Stop: func(round int) bool {
			for _, p := range nodes {
				if nd := p.(*AlgBarb); nd.KnowsCompleteRound == 0 || round < nd.KnowsCompleteRound {
					return false
				}
			}
			return true
		},
	}
	return nodes, base, release, nil
}

// AssembleArbitrary turns the Result of running PlanArbitrary's protocols
// ps into the outcome. KnowsCompleteRound, T and which node ran as the
// coordinator are protocol state, so res must come from running exactly
// ps and the slab must not be released yet.
func AssembleArbitrary(res *radio.Result, ps []radio.Protocol, source int) *ArbOutcome {
	out := &ArbOutcome{
		R:                  -1,
		KnowsCompleteRound: make([]int, len(ps)),
		TotalRounds:        res.Rounds,
	}
	for v, p := range ps {
		nd := p.(*AlgBarb)
		if nd.isR {
			out.R = v
		}
		out.KnowsCompleteRound[v] = nd.KnowsCompleteRound
		if t, ok := nd.TValue(); ok && t > out.T {
			out.T = t
		}
	}
	assembleInformed(&out.BroadcastOutcome, res, nil, source, out.R)
	return out
}

// VerifyArbitrary checks Barb's guarantees: every node learned µ with the
// right payload, and all nodes reach "knows complete" in the same round.
func VerifyArbitrary(g *graph.Graph, out *ArbOutcome, mu string) error {
	n := g.N()
	if !out.AllInformed {
		return fmt.Errorf("core: Barb incomplete: some node never learned µ")
	}
	if err := checkPayloads(out.Result, out.R, mu); err != nil {
		return err
	}
	common := 0
	for v := 0; v < n; v++ {
		kc := out.KnowsCompleteRound[v]
		if kc == 0 {
			return fmt.Errorf("core: node %d never knows completion", v)
		}
		if common == 0 {
			common = kc
		} else if kc != common {
			return fmt.Errorf("core: node %d knows completion at %d, others at %d", v, kc, common)
		}
	}
	return nil
}
