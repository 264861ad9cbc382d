package radiobcast

import "sort"

// Degradation is the graded classification of a broadcast's delivery
// coverage. A clean run of a correct scheme is DegradedNone; under faults
// the classification says how gracefully the scheme gave way — the
// robustness measure a binary AllInformed cannot express.
type Degradation string

const (
	// DegradedNone: every node was informed.
	DegradedNone Degradation = "none"
	// DegradedMinor: at least 90% of the nodes were informed.
	DegradedMinor Degradation = "minor"
	// DegradedMajor: at least half of the nodes were informed.
	DegradedMajor Degradation = "major"
	// DegradedSevere: fewer than half were informed, but µ left the source.
	DegradedSevere Degradation = "severe"
	// DegradedTotal: only the source knows µ — nothing was delivered.
	DegradedTotal Degradation = "total"
)

// degradation computes an outcome's coverage and its classification.
// Informed means the source itself or any node with a recorded informed
// round.
func degradation(out *Outcome) (float64, Degradation) {
	n := out.Graph.N()
	if n == 0 {
		return 1, DegradedNone
	}
	informed := 0
	for v, r := range out.InformedRound {
		if v == out.Source || r > 0 {
			informed++
		}
	}
	cov := float64(informed) / float64(n)
	switch {
	case informed == n:
		return cov, DegradedNone
	case informed*10 >= n*9:
		return cov, DegradedMinor
	case informed*2 >= n:
		return cov, DegradedMajor
	case informed > 1:
		return cov, DegradedSevere
	default:
		return cov, DegradedTotal
	}
}

// RoundsToCoverage returns the earliest round by which at least frac of
// the nodes were informed (the source counts as informed from round 0).
// The second result is false when the run never reached that coverage.
// RoundsToCoverage(1) is CompletionRound for a complete broadcast.
func (o *Outcome) RoundsToCoverage(frac float64) (int, bool) {
	n := o.Graph.N()
	if n == 0 || frac <= 0 {
		return 0, true
	}
	need := int(frac * float64(n))
	if float64(need) < frac*float64(n) {
		need++ // ceil without float drift for exact fractions
	}
	if need <= 0 {
		return 0, true
	}
	rounds := make([]int, 0, n)
	for v, r := range o.InformedRound {
		switch {
		case v == o.Source:
			rounds = append(rounds, 0)
		case r > 0:
			rounds = append(rounds, r)
		}
	}
	if len(rounds) < need {
		return 0, false
	}
	sort.Ints(rounds)
	return rounds[need-1], true
}
