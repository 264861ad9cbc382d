// Package onebit implements the single-bit labeling schemes sketched in the
// paper's conclusion (§5). The paper states — without constructions — that
// broadcast with 1-bit labels is possible in graphs where every node is
// within distance 2 of the source, in series-parallel graphs, and in grid
// graphs. Its only hint (restricting the DOM recursion to DOM_{i−1}) stalls
// when taken literally (see core.BuildOptions.Restricted and the ONEBIT
// experiment), so this package provides *verified* reconstructions:
// constructive labelings for paths, cycles and grids under the delayed
// flooding protocol family, an exhaustive/greedy search for small general
// graphs, and per-instance verification by exact simulation. Every labeling
// returned by this package has been machine-checked to complete broadcast.
package onebit

import (
	"context"
	"fmt"
	"math/rand"

	"radiobcast/internal/baseline"
	"radiobcast/internal/core"
	"radiobcast/internal/graph"
)

// Scheme is a verified one-bit labeling for a (graph, source) pair under a
// flooding delay family.
type Scheme struct {
	Labels []core.Label
	Delays baseline.FloodingDelays
	// CompletionRound is the verified completion round.
	CompletionRound int
}

// Verify runs the delayed-flooding protocol under the labels and reports
// whether broadcast completes, returning the completion round.
func Verify(g *graph.Graph, labels []core.Label, d baseline.FloodingDelays, source int) (int, bool) {
	_, all, last := baseline.RunFlooding(g, labels, d, source, "m")
	if !all {
		return 0, false
	}
	return last, true
}

// PathScheme labels a path (node ids in path order) with all-1 labels:
// the wave forwards hop by hop with no collisions. Works for any source.
func PathScheme(g *graph.Graph, source int) (*Scheme, error) {
	labels := uniform(g.N(), true)
	return verified(g, labels, baseline.DefaultDelays, source, "path")
}

// CycleScheme labels a cycle (node ids in cycle order). For odd cycles
// all-1 labels work; for even cycles the two waves would collide forever at
// the antipode, so one of the antipode's neighbours is silenced with a 0.
func CycleScheme(g *graph.Graph, source int) (*Scheme, error) {
	n := g.N()
	labels := uniform(n, true)
	if n%2 == 0 {
		// Silence the clockwise neighbour of the antipodal node.
		antipode := (source + n/2) % n
		labels[(antipode+1)%n] = core.MakeLabel(false)
	}
	return verified(g, labels, baseline.DefaultDelays, source, "cycle")
}

// GridScheme labels a rows×cols grid for a corner source (node 0, cell
// (0,0)). See GridSchemeAt for the construction.
func GridScheme(rows, cols int) (*Scheme, *graph.Graph, error) {
	return GridSchemeAt(rows, cols, 0, 0)
}

// GridSchemeAt labels a rows×cols grid for the source at cell (si, sj)
// with the column-backbone rule: bit(i,j) = 1 iff j = sj (forward after 1
// round), every other cell 0 (forward after 2 rounds). The source column
// carries a fast vertical wave, and each row then floods sideways at half
// speed; the resulting informed times are
//
//	t(i,j) = |i−si| + 2|j−sj| − 1   (j ≠ sj),   t(i,sj) = |i−si|,
//
// and no listener ever has two neighbours transmitting in the same round:
// along a row, consecutive transmissions are 2 apart, and vertical
// neighbours (i±1, j) transmit at t ± 1 + 2 ≠ t. The construction is
// verified by simulation before being returned.
func GridSchemeAt(rows, cols, si, sj int) (*Scheme, *graph.Graph, error) {
	g := graph.Grid(rows, cols)
	labels := make([]core.Label, g.N())
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			labels[graph.GridIndex(rows, cols, i, j)] = core.MakeLabel(j == sj)
		}
	}
	source := graph.GridIndex(rows, cols, si, sj)
	s, err := verifiedAt(g, labels, baseline.GridDelays, source, fmt.Sprintf("grid %dx%d @(%d,%d)", rows, cols, si, sj))
	return s, g, err
}

// SearchExhaustive tries every 1-bit labeling (2^n of them) under the given
// delays and returns the first that completes, preferring lexicographically
// small labelings, or nil when none does. Only feasible for small n
// (≤ ~20). It checks ctx between simulations and returns ctx's error once
// ctx is done.
func SearchExhaustive(ctx context.Context, g *graph.Graph, d baseline.FloodingDelays, source int) (*Scheme, error) {
	n := g.N()
	if n > 22 {
		panic(fmt.Sprintf("onebit: exhaustive search infeasible for n=%d", n))
	}
	labels := make([]core.Label, n)
	for mask := 0; mask < 1<<uint(n); mask++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for v := 0; v < n; v++ {
			labels[v] = core.MakeLabel(mask&(1<<uint(v)) != 0)
		}
		if round, ok := Verify(g, labels, d, source); ok {
			return &Scheme{Labels: append([]core.Label(nil), labels...), Delays: d, CompletionRound: round}, nil
		}
	}
	return nil, nil
}

// SearchRandom hill-climbs over labelings: starting from all-1, it flips
// random bits, keeping flips that reduce the number of uninformed nodes.
// Deterministic in seed. Returns the scheme found, or nil when no labeling
// completes within tries flips. It checks ctx between simulations and
// returns ctx's error once ctx is done.
func SearchRandom(ctx context.Context, g *graph.Graph, d baseline.FloodingDelays, source int, tries int, seed int64) (*Scheme, error) {
	n := g.N()
	r := rand.New(rand.NewSource(seed))
	labels := uniform(n, true)
	best := uninformedCount(g, labels, d, source)
	if best == 0 {
		round, _ := Verify(g, labels, d, source)
		return &Scheme{Labels: labels, Delays: d, CompletionRound: round}, nil
	}
	for t := 0; t < tries; t++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		v := r.Intn(n)
		flipped := append([]core.Label(nil), labels...)
		flipped[v] = core.MakeLabel(!flipped[v].Bit(0))
		score := uninformedCount(g, flipped, d, source)
		if score <= best { // accept sideways moves to escape plateaus
			labels, best = flipped, score
			if best == 0 {
				round, _ := Verify(g, labels, d, source)
				return &Scheme{Labels: labels, Delays: d, CompletionRound: round}, nil
			}
		}
	}
	return nil, nil
}

func uninformedCount(g *graph.Graph, labels []core.Label, d baseline.FloodingDelays, source int) int {
	rounds, _, _ := baseline.RunFlooding(g, labels, d, source, "m")
	count := 0
	for v, r := range rounds {
		if v != source && r == 0 {
			count++
		}
	}
	return count
}

func uniform(n int, bit bool) []core.Label {
	labels := make([]core.Label, n)
	for v := range labels {
		labels[v] = core.MakeLabel(bit)
	}
	return labels
}

func verified(g *graph.Graph, labels []core.Label, d baseline.FloodingDelays, source int, what string) (*Scheme, error) {
	return verifiedAt(g, labels, d, source, what)
}

func verifiedAt(g *graph.Graph, labels []core.Label, d baseline.FloodingDelays, source int, what string) (*Scheme, error) {
	round, ok := Verify(g, labels, d, source)
	if !ok {
		return nil, fmt.Errorf("onebit: %s labeling failed verification", what)
	}
	return &Scheme{Labels: labels, Delays: d, CompletionRound: round}, nil
}
