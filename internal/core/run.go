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
	// Stages is the construction underlying the labels.
	Stages *Stages
	Labels []Label
}

// PlanBroadcast splits a B execution into its three ingredients — the
// protocol vector, the scheme's base engine options, and an assemble
// function that turns the engine Result into the outcome — so callers can
// set their own engine knobs on the options before running. A run is
// exactly plan → radio.Run → assemble. MaxRounds defaults to 2n+4,
// comfortably above the paper's 2n−3 bound.
func PlanBroadcast(g *graph.Graph, l *Labeling, source int, mu string) ([]radio.Protocol, radio.Options, func(*radio.Result) *BroadcastOutcome) {
	n := g.N()
	ps := NewBProtocols(l.Labels, source, mu)
	base := radio.Options{
		MaxRounds:       2*n + 4,
		StopAfterSilent: 3,
	}
	asm := func(res *radio.Result) *BroadcastOutcome {
		out := &BroadcastOutcome{}
		assembleInformed(out, res, l, n, source)
		return out
	}
	return ps, base, asm
}

// assembleInformed fills the broadcast half of an outcome from the
// engine Result: every non-source node's first µ reception, and the
// completion round.
func assembleInformed(out *BroadcastOutcome, res *radio.Result, l *Labeling, n, source int) {
	out.Result, out.Stages, out.Labels = res, l.Stages, l.Labels
	out.InformedRound = make([]int, n)
	out.AllInformed = true
	for v := 0; v < n; v++ {
		if v == source {
			continue
		}
		r := res.FirstReception(v, radio.KindData)
		out.InformedRound[v] = r
		if r == radio.NoReception {
			out.AllInformed = false
		}
		if r > out.CompletionRound {
			out.CompletionRound = r
		}
	}
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
	stageOf := out.Stages.InformedStage()
	for v := 0; v < n; v++ {
		if v == out.Stages.Source {
			continue
		}
		want := 2*stageOf[v] - 1
		if out.InformedRound[v] != want {
			return fmt.Errorf("core: node %d informed in round %d, Lemma 2.8 predicts %d", v, out.InformedRound[v], want)
		}
		for _, rec := range out.Result.Receives[v] {
			if rec.Msg.Kind == radio.KindData && rec.Msg.Payload != mu {
				return fmt.Errorf("core: node %d received payload %q, want %q", v, rec.Msg.Payload, mu)
			}
		}
	}
	return nil
}

// AckOutcome summarises a run of algorithm Back.
type AckOutcome struct {
	BroadcastOutcome
	// AckRound is the round in which the source received an "ack"
	// (the t′ of Theorem 3.9); 0 if it never arrived.
	AckRound int
	Z        int
}

// PlanAcknowledged is the plan/assemble split of a Back execution (see
// PlanBroadcast). The assemble closure reads the source protocol's ack
// state, so it must be called on the Result of running exactly the
// returned protocol vector.
func PlanAcknowledged(g *graph.Graph, l *Labeling, source int, mu string) ([]radio.Protocol, radio.Options, func(*radio.Result) *AckOutcome) {
	n := g.N()
	ps := NewBackProtocols(l.Labels, source, mu)
	src := ps[source].(*AckNode)
	base := radio.Options{
		MaxRounds:       3*n + 6,
		StopAfterSilent: 3,
	}
	asm := func(res *radio.Result) *AckOutcome {
		out := &AckOutcome{Z: l.Z}
		assembleInformed(&out.BroadcastOutcome, res, l, n, source)
		out.AckRound = src.AckRound()
		return out
	}
	return ps, base, asm
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

// CommonRoundOutcome summarises the §3 composition Back→B that yields a
// common round in which all nodes know broadcast has completed.
type CommonRoundOutcome struct {
	Ack *AckOutcome
	// M is the round in which the source first received the ack; the second
	// broadcast disseminates m = M and every node knows completion at round
	// 2M of the second execution's clock.
	M int
	// SecondCompletion is the completion round of the second broadcast.
	SecondCompletion int
	// CommonRound is 2M (in the second execution's clock).
	CommonRound int
}

// RunCommonRound performs acknowledged broadcast and then broadcasts the
// ack round m with algorithm B, verifying all nodes receive m before round
// 2m (the paper's closing argument of §3). The composition is not a
// registered scheme, so it runs the two plans itself.
func RunCommonRound(g *graph.Graph, source int, mu string, opt BuildOptions) (*CommonRoundOutcome, error) {
	l, err := LambdaAck(g, source, opt)
	if err != nil {
		return nil, err
	}
	ps, base, asm := PlanAcknowledged(g, l, source, mu)
	ack := asm(radio.Run(g, ps, base))
	if g.N() >= 2 && ack.AckRound == 0 {
		return nil, fmt.Errorf("core: acknowledged broadcast failed")
	}
	out := &CommonRoundOutcome{Ack: ack, M: ack.AckRound, CommonRound: 2 * ack.AckRound}
	// Second execution: B with message m over the same labels (B starts
	// no ack, so it ignores z's x3 bit).
	ps, base, asmB := PlanBroadcast(g, l, source, fmt.Sprintf("%d", out.M))
	out.SecondCompletion = asmB(radio.Run(g, ps, base)).CompletionRound
	return out, nil
}

// VerifyCommonRound checks that the second broadcast finishes before round
// 2m, so that round 2m is a common completion-knowledge round.
func VerifyCommonRound(out *CommonRoundOutcome) error {
	if out.SecondCompletion >= out.CommonRound {
		return fmt.Errorf("core: second broadcast finished in round %d, not before 2m = %d", out.SecondCompletion, out.CommonRound)
	}
	return nil
}

// ArbOutcome summarises a run of Barb.
type ArbOutcome struct {
	Result *radio.Result
	Labels []Label
	R      int
	Source int
	// MuKnownRound[v]: absolute round when v learned µ (0 = source).
	MuKnownRound []int
	AllKnowMu    bool
	// KnowsCompleteRound[v]: absolute round from which v knows broadcast
	// completed (0 = never); for correct runs all entries are equal.
	KnowsCompleteRound []int
	TotalRounds        int
	T                  int
}

// PlanArbitrary is the plan/assemble split of a Barb execution (see
// PlanBroadcast). Both the base Stop predicate and the assemble closure
// read per-node protocol state, so the Result handed to assemble must
// come from running exactly the returned protocol vector. Errors for
// n < 2 (Barb needs a coordinator and at least one other node).
func PlanArbitrary(g *graph.Graph, l *Labeling, source int, mu string) ([]radio.Protocol, radio.Options, func(*radio.Result) *ArbOutcome, error) {
	n := g.N()
	if n < 2 {
		return nil, radio.Options{}, nil, fmt.Errorf("core: Barb needs n ≥ 2")
	}
	ps := NewBarbProtocols(l.Labels, source, mu)
	nodes := make([]*AlgBarb, n)
	for v := range ps {
		nodes[v] = ps[v].(*AlgBarb)
	}
	base := radio.Options{
		MaxRounds: 14*n + 40,
		Stop: func(round int) bool {
			for _, nd := range nodes {
				if nd.KnowsCompleteRound == 0 || round < nd.KnowsCompleteRound {
					return false
				}
			}
			return true
		},
	}
	asm := func(res *radio.Result) *ArbOutcome {
		out := &ArbOutcome{
			Result: res, Labels: l.Labels, R: l.R, Source: source,
			MuKnownRound:       make([]int, n),
			KnowsCompleteRound: make([]int, n),
			AllKnowMu:          true,
			TotalRounds:        res.Rounds,
		}
		for v, nd := range nodes {
			if got, ok := nd.Mu(); !ok || got != mu {
				out.AllKnowMu = false
			}
			out.MuKnownRound[v] = nd.MuKnownRound
			out.KnowsCompleteRound[v] = nd.KnowsCompleteRound
			if t, ok := nd.TValue(); ok && t > out.T {
				out.T = t
			}
		}
		return out
	}
	return ps, base, asm, nil
}

// VerifyArbitrary checks Barb's guarantees: every node learned µ with the
// right payload, and all nodes reach "knows complete" in the same round.
func VerifyArbitrary(g *graph.Graph, out *ArbOutcome, mu string) error {
	n := g.N()
	if !out.AllKnowMu {
		return fmt.Errorf("core: Barb incomplete: some node never learned µ")
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
