package experiments

import (
	"fmt"
	"strconv"

	"radiobcast"
	"radiobcast/internal/graph"
	"radiobcast/internal/sweep"
)

// Theorem39Experiment measures the acknowledgement round t′ against both
// windows: the exact Corollary 3.8 window {2ℓ−2..3ℓ−4} and the n-based
// Theorem 3.9 window {t+1..t+n−2}. Reproduction finding: the latter is off
// by one (ℓ = n on a path gives t′ = t + n − 1); the table records both.
func Theorem39Experiment(cfg Config) ([]*Table, error) {
	t := &Table{
		ID:    "T39",
		Title: "Acknowledged broadcast Back: completion t and ack round t′",
		Caption: "cor3.8 = t′ ∈ {2ℓ−2..3ℓ−4}; thm3.9(n) = t′ ≤ t+n−2 as printed in the paper" +
			" (off by one when ℓ = n); corrected = t′ ≤ t+n−1.",
		Columns: []string{"family", "n", "ℓ", "t", "t′", "2ℓ−2", "3ℓ−4", "cor3.8", "thm3.9(n)", "corrected"},
	}
	type row struct {
		fam                        string
		n, l, tc, ta, lo, hi       int
		cor, thm, corrected, valid bool
		err                        error
	}
	rows := sweep.Map(familyGrid(cfg), cfg.Workers, func(c familyCase) row {
		g := graph.Families[c.Family](c.N)
		n := g.N()
		if n < 2 {
			return row{fam: c.Family, n: n, valid: false}
		}
		out, err := radiobcast.Run(radiobcast.NewNetwork(g), "back", radiobcast.WithMessage("m"))
		if err != nil {
			return row{fam: c.Family, n: n, err: err}
		}
		if err := radiobcast.Verify(out); err != nil {
			return row{fam: c.Family, n: n, err: err}
		}
		l := out.Labeling.Stages.L
		lo, hi := 2*l-2, 3*l-4
		if hi < lo {
			hi = lo
		}
		return row{
			fam: c.Family, n: n, l: l, tc: out.CompletionRound, ta: out.AckRound,
			lo: lo, hi: hi,
			cor:       out.AckRound >= lo && out.AckRound <= hi,
			thm:       out.AckRound <= out.CompletionRound+n-2,
			corrected: out.AckRound <= out.CompletionRound+n-1,
			valid:     true,
		}
	})
	for _, r := range rows {
		if r.err != nil {
			return nil, fmt.Errorf("%s n=%d: %w", r.fam, r.n, r.err)
		}
		if !r.valid {
			continue
		}
		if !r.cor || !r.corrected {
			return nil, fmt.Errorf("%s n=%d: ack window violated (t′=%d)", r.fam, r.n, r.ta)
		}
		t.AddRow(r.fam, r.n, r.l, r.tc, r.ta, r.lo, r.hi,
			boolMark(r.cor), boolMark(r.thm), boolMark(r.corrected))
	}
	return []*Table{t}, nil
}

// CommonRoundOutcome summarises the §3 composition Back→B that yields a
// common round in which all nodes know broadcast has completed.
type CommonRoundOutcome struct {
	// M is the round in which the source first received the ack; the second
	// broadcast disseminates m = M and every node knows completion at round
	// 2M of the second execution's clock.
	M int
	// SecondCompletion is the completion round of the second broadcast.
	SecondCompletion int
	// CommonRound is 2M (in the second execution's clock).
	CommonRound int
}

// RunCommonRound performs acknowledged broadcast of mu from net's source
// with Back and then broadcasts the ack round m with B over the same
// labeling (B starts no ack, so it ignores z's x3 bit): the paper's
// closing argument of §3. Both runs go through the facade with opts, and
// both must pass Verify.
func RunCommonRound(net *radiobcast.Network, mu string, opts ...radiobcast.Option) (*CommonRoundOutcome, error) {
	ack, err := radiobcast.Run(net, "back", append(opts, radiobcast.WithMessage(mu))...)
	if err != nil {
		return nil, err
	}
	if err := radiobcast.Verify(ack); err != nil {
		return nil, err
	}
	out := &CommonRoundOutcome{M: ack.AckRound, CommonRound: 2 * ack.AckRound}
	l := *ack.Labeling
	l.Scheme = "b"
	second, err := radiobcast.RunLabeled(&l, append(opts, radiobcast.WithMessage(strconv.Itoa(out.M)))...)
	if err != nil {
		return nil, err
	}
	if err := radiobcast.Verify(second); err != nil {
		return nil, err
	}
	out.SecondCompletion = second.CompletionRound
	return out, nil
}

// VerifyCommonRound checks that the second broadcast finishes before round
// 2m, so that round 2m is a common completion-knowledge round.
func VerifyCommonRound(out *CommonRoundOutcome) error {
	if out.SecondCompletion >= out.CommonRound {
		return fmt.Errorf("second broadcast finished in round %d, not before 2m = %d", out.SecondCompletion, out.CommonRound)
	}
	return nil
}

// CommonRoundExperiment verifies the §3 composition: after Back, the source
// broadcasts m (its ack round) with B; everyone receives m before round 2m,
// so round 2m is a common completion-knowledge round.
func CommonRoundExperiment(cfg Config) ([]*Table, error) {
	t := &Table{
		ID:      "CR",
		Title:   "Common completion-knowledge round (Back then B with message m)",
		Columns: []string{"family", "n", "m", "2m", "second completion", "before 2m"},
	}
	type row struct {
		fam          string
		n, m, second int
		ok, valid    bool
		err          error
	}
	rows := sweep.Map(familyGrid(cfg), cfg.Workers, func(c familyCase) row {
		g := graph.Families[c.Family](c.N)
		if g.N() < 2 {
			return row{fam: c.Family, n: g.N()}
		}
		out, err := RunCommonRound(radiobcast.NewNetwork(g), "m")
		if err != nil {
			return row{fam: c.Family, n: g.N(), err: err}
		}
		return row{
			fam: c.Family, n: g.N(), m: out.M, second: out.SecondCompletion,
			ok: VerifyCommonRound(out) == nil, valid: true,
		}
	})
	for _, r := range rows {
		if r.err != nil {
			return nil, fmt.Errorf("%s n=%d: %w", r.fam, r.n, r.err)
		}
		if !r.valid {
			continue
		}
		if !r.ok {
			return nil, fmt.Errorf("%s n=%d: common-round property violated", r.fam, r.n)
		}
		t.AddRow(r.fam, r.n, r.m, 2*r.m, r.second, boolMark(r.ok))
	}
	return []*Table{t}, nil
}
