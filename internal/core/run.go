package core

import (
	"fmt"
	"slices"

	"radiobcast/internal/graph"
	"radiobcast/internal/radio"
)

// PlanBroadcast returns what a B execution runs: the protocol vector,
// the scheme's base engine options, on which callers set their own engine
// knobs, and the release of the protocols' pooled slab (see
// NewBProtocols). A run is exactly plan → radio.Run → Informed →
// release. MaxRounds defaults to 2n+4, comfortably above the paper's
// 2n−3 bound.
func PlanBroadcast(g *graph.Graph, labels []Label, source int, mu string) (ps []radio.Protocol, base radio.Options, release func()) {
	ps, release = NewBProtocols(labels, source, mu)
	return ps, radio.Options{MaxRounds: 2*g.N() + 4, StopAfterSilent: 3}, release
}

// Informed reads who a run informed from its Result, the one record of
// it: rounds[v] is node v's first reception that carries µ, 0 for the
// source and for a node never informed; all reports whether every other
// node was informed; last is the largest entry, the completion round of
// a complete broadcast. A data message carries µ, and so does the
// phase-2 ack that fetches µ to Barb's coordinator r (§4.2) when r hears
// it: coordinator is r, or −1 for the schemes without one. A reception a
// crash wiped is not in the Result, so it informs no one. A run is read
// here once: the facade does it for every scheme, and the 1-bit searches
// for the runs that check their candidates.
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

// VerifyBroadcast checks a run of B against the paper's guarantees, from
// its Result, who it informed (Informed's rounds) and the stages st its
// labels were built from: completion within 2n−3 rounds (Theorem 2.9),
// each node informed exactly in round 2i−1 for its stage i (Lemma 2.8),
// so every node but the source informed, and all received payloads equal
// to µ.
func VerifyBroadcast(res *radio.Result, informed []int, st *Stages, mu string) error {
	n := res.N()
	if len(informed) != n {
		return fmt.Errorf("core: %d informed rounds for %d nodes", len(informed), n)
	}
	if st == nil || st.G.N() != n {
		return fmt.Errorf("core: no stages of the %d-node graph to check Lemma 2.8 against", n)
	}
	if n >= 2 {
		if t := slices.Max(informed); t > 2*n-3 {
			return fmt.Errorf("core: completion round %d exceeds 2n−3 = %d", t, 2*n-3)
		}
	}
	// The NEW lists are disjoint (Lemma 2.3), so n−1 entries that each
	// pass are every node but the source, the one node informed in round 0.
	listed := 0
	for i := 1; i <= st.NumStored(); i++ {
		_, nw := st.Lists(i)
		for _, v := range nw {
			if want := 2*i - 1; informed[v] != want {
				return fmt.Errorf("core: node %d informed in round %d, Lemma 2.8 predicts %d", v, informed[v], want)
			}
		}
		listed += len(nw)
	}
	if listed != n-1 {
		return fmt.Errorf("core: the NEW lists hold %d nodes, want the %d non-source nodes", listed, n-1)
	}
	return checkPayloads(res, -1, mu)
}

// PlanAcknowledged is PlanBroadcast for a Back execution. The source's
// first ack reception in the Result is the run's t′ (Theorem 3.9).
func PlanAcknowledged(g *graph.Graph, labels []Label, source int, mu string) (ps []radio.Protocol, base radio.Options, release func()) {
	ps, release = NewBackProtocols(labels, source, mu)
	return ps, radio.Options{MaxRounds: 3*g.N() + 6, StopAfterSilent: 3}, release
}

// VerifyAcknowledged checks Theorem 3.9 and Corollary 3.8 on a run of
// Back whose source first heard an ack in ackRound (0 if never):
// broadcast completes by t ≤ 2n−3 as VerifyBroadcast checks it; the ack
// arrives in a round t′ ∈ {2ℓ−2, …, 3ℓ−4}; and it arrives strictly after
// completion.
func VerifyAcknowledged(res *radio.Result, informed []int, ackRound int, st *Stages, mu string) error {
	if err := VerifyBroadcast(res, informed, st, mu); err != nil {
		return err
	}
	if len(informed) < 2 {
		return nil // no acknowledgement needed for a single node
	}
	if ackRound == 0 {
		return fmt.Errorf("core: source never received an ack")
	}
	if t := slices.Max(informed); ackRound <= t {
		return fmt.Errorf("core: ack round %d not after completion round %d", ackRound, t)
	}
	l := st.L
	lo, hi := 2*l-2, 3*l-4
	if hi < lo {
		hi = lo // ℓ = 2: the window degenerates to {2ℓ−2}
	}
	if ackRound < lo || ackRound > hi {
		return fmt.Errorf("core: ack round %d outside Corollary 3.8 window [%d,%d] (ℓ=%d)", ackRound, lo, hi, l)
	}
	return nil
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

// ArbitraryState reads what PlanArbitrary's protocols ps know after their
// run: knows[v] is the absolute round from which v knows the broadcast
// completed (0 = never), and t is the completion estimate T the
// coordinator disseminated. Both are protocol state, so the slab must not
// be released yet.
func ArbitraryState(ps []radio.Protocol) (knows []int, t int) {
	knows = make([]int, len(ps))
	for v, p := range ps {
		nd := p.(*AlgBarb)
		knows[v] = nd.KnowsCompleteRound
		if tv, ok := nd.TValue(); ok {
			t = max(t, tv)
		}
	}
	return knows, t
}

// VerifyArbitrary checks Barb's guarantees on a run from its Result, the
// knows-complete rounds ArbitraryState read and the coordinator r: every
// reception carrying µ (at r, the ack that fetches it) has payload mu, and
// all nodes reach "knows complete" in the same round. Whether every node
// learned µ is Informed's to say, and the caller's to check.
func VerifyArbitrary(res *radio.Result, knows []int, r int, mu string) error {
	if len(knows) != res.N() {
		return fmt.Errorf("core: %d knows-complete rounds for %d nodes", len(knows), res.N())
	}
	if err := checkPayloads(res, r, mu); err != nil {
		return err
	}
	for v, kc := range knows {
		if kc == 0 {
			return fmt.Errorf("core: node %d never knows completion", v)
		}
		if kc != knows[0] {
			return fmt.Errorf("core: node %d knows completion at %d, others at %d", v, kc, knows[0])
		}
	}
	return nil
}
