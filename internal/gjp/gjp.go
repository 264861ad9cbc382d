// Package gjp is a bounded 1-bit echo search adapted from
// Gańczorz–Jurdziński–Pelc, "Optimal-Length Labeling Schemes for Fast
// Deterministic Communication in Radio Networks" (arXiv:2410.07382).
// Only that paper's 1-bit idea is taken here, and none of its guarantees
// is claimed.
//
// The protocol is algorithm B over the 2-bit labels 10 and 01: a node's
// bit b becomes x1 = b, x2 = ¬b. So a newly informed bit-1 node forwards
// µ two rounds after first hearing it, a newly informed bit-0 node sends
// "stay" one round after, and a transmitter that hears a lone "stay"
// retransmits µ, which keeps the wave alive where no bit-1 node was newly
// informed. Build picks the bits by a bounded backtracking search over an
// exact simulation of the stages. It is not universal: it fails where no
// 1-bit labeling exists (Figure 1) and where the search misses one within
// its budget, and every labeling it returns has been verified by running
// the protocol.
package gjp

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"radiobcast/internal/core"
	"radiobcast/internal/graph"
	"radiobcast/internal/radio"
)

// exhaustiveMax bounds the per-stage exhaustive subset enumeration: with
// at most this many newly informed nodes, every bit assignment for the
// stage is scored; beyond it, a fixed family of heuristic assignments
// competes instead.
const exhaustiveMax = 10

// branchMax bounds the backtracking fanout per stage (the top-scoring
// candidates are kept, the rest pruned).
const branchMax = 4

// DefaultBudget is the default bound on stage-candidate evaluations per
// Build; QuickBudget is the reduced bound for quick mode.
const (
	DefaultBudget = 4096
	QuickBudget   = 256
)

// ErrNoLabeling reports that Build's search found no 1-bit labeling within
// its budget.
var ErrNoLabeling = errors.New("no 1-bit labeling found")

// Plan returns what a run over a 1-bit labeling executes: B's plan
// (core.PlanBroadcast, with its bounds and slab release) over the labels
// (b, ¬b).
func Plan(g *graph.Graph, labels []core.Label, source int, mu string) (ps []radio.Protocol, base radio.Options, release func()) {
	one, zero := core.MakeLabel(true, false), core.MakeLabel(false, true)
	bLabels := make([]core.Label, len(labels))
	for v, l := range labels {
		bLabels[v] = zero
		if l.Bit(0) {
			bLabels[v] = one
		}
	}
	return core.PlanBroadcast(g, bLabels, source, mu)
}

// Build computes a 1-bit labeling under which the protocol (see
// Plan) completes broadcast from source, by exact simulation of
// the stage dynamics with backtracking.
//
// The dynamics are deterministic given the bits, so construction walks
// data rounds d = 1, 3, 5, …: the transmitter set T of round d newly
// informs NEW (the uninformed nodes with exactly one neighbor in T); the
// builder then chooses which subset S ⊆ NEW gets bit 1 (forwarding µ at
// d+2) — the rest get bit 0 and echo at d+1, reviving every t ∈ T that
// hears a lone echo — and recurses on the next transmitter set. A stage
// whose every candidate informs nobody is a dead end and backtracks;
// budget bounds the total candidate evaluations.
//
// Broadcast under this protocol is not universal: Build returns an error
// wrapping ErrNoLabeling when no assignment within budget sustains the
// wave. Every labeling returned has been verified by running the real
// protocol on the engine. Build checks ctx between candidate evaluations
// and returns ctx's error once ctx is done.
func Build(ctx context.Context, g *graph.Graph, source int, budget int) ([]core.Label, error) {
	n := g.N()
	if source < 0 || source >= n {
		return nil, fmt.Errorf("gjp: source %d out of range [0,%d)", source, n)
	}
	if budget <= 0 {
		budget = DefaultBudget
	}
	b := &builder{ctx: ctx, csr: g.Freeze(), n: n, bits: make([]int8, n), informed: make([]bool, n), budget: budget}
	for i := range b.bits {
		b.bits[i] = -1
	}
	b.informed[source] = true
	b.ninf = 1
	found := b.search([]int{source})
	if b.err != nil {
		return nil, b.err
	}
	if !found {
		return nil, fmt.Errorf("gjp: %w for %v from source %d (echo-controlled broadcast is not universal)", ErrNoLabeling, g, source)
	}
	labels := make([]core.Label, n)
	for v := range labels {
		labels[v] = core.MakeLabel(b.bits[v] == 1)
	}
	if err := verify(g, labels, source); err != nil {
		return nil, err
	}
	return labels, nil
}

type builder struct {
	ctx      context.Context
	err      error // ctx's error, once candidates found ctx done
	csr      *graph.CSR
	n        int
	bits     []int8 // -1 = unassigned
	informed []bool
	ninf     int
	budget   int
}

// search advances one stage: T is the transmitter set of the current
// data round. It returns true once every node is informed, assigning
// bits along the way (and unassigning them on backtrack).
func (b *builder) search(T []int) bool {
	if b.ninf == b.n {
		return true
	}
	if len(T) == 0 {
		return false
	}
	newly := b.newlyInformed(T)
	if len(newly) == 0 {
		return false
	}
	for _, v := range newly {
		b.informed[v] = true
	}
	b.ninf += len(newly)
	if b.ninf == b.n {
		// The wave just finished; the last stage's bits are free.
		for _, v := range newly {
			b.bits[v] = 0
		}
		return true
	}

	cands := b.candidates(T, newly)
	for _, c := range cands {
		if b.budget <= 0 || b.err != nil {
			break
		}
		b.budget--
		for i, v := range newly {
			if c.sel[i] {
				b.bits[v] = 1
			} else {
				b.bits[v] = 0
			}
		}
		if b.search(c.next) {
			return true
		}
		for _, v := range newly {
			b.bits[v] = -1
		}
	}

	for _, v := range newly {
		b.informed[v] = false
	}
	b.ninf -= len(newly)
	return false
}

// newlyInformed returns the uninformed nodes with exactly one neighbor
// in T, in ascending node order.
func (b *builder) newlyInformed(T []int) []int {
	count := map[int]int{}
	for _, t := range T {
		for _, w := range b.csr.Neighbors(t) {
			if !b.informed[w] {
				count[int(w)]++
			}
		}
	}
	var out []int
	for w, c := range count {
		if c == 1 {
			out = append(out, w)
		}
	}
	sort.Ints(out)
	return out
}

// candidate is one scored bit assignment for a stage: sel[i] marks the
// stage's i-th newly informed node as a bit-1 forwarder, next is the
// resulting next transmitter set, and score how many nodes that set
// newly informs.
type candidate struct {
	sel   []bool
	next  []int
	score int
}

// candidates enumerates and scores the stage's bit assignments, best
// first (dead assignments — score 0 — are dropped: with uninformed
// nodes remaining they can only stall the wave). Enumeration is
// exhaustive for small stages, heuristic beyond: all-forward, all-echo,
// and a greedy unique-cover of the next frontier.
func (b *builder) candidates(T, newly []int) []candidate {
	k := len(newly)
	var sels [][]bool
	if k <= exhaustiveMax {
		for m := 0; m < 1<<uint(k); m++ {
			sel := make([]bool, k)
			for i := 0; i < k; i++ {
				sel[i] = m&(1<<uint(i)) != 0
			}
			sels = append(sels, sel)
		}
	} else {
		all := make([]bool, k)
		for i := range all {
			all[i] = true
		}
		sels = append(sels, all, make([]bool, k), b.coverSel(newly))
	}
	seen := map[string]bool{}
	var out []candidate
	for _, sel := range sels {
		if b.err = b.ctx.Err(); b.err != nil {
			return nil // the search unwinds without trying another candidate
		}
		key := selKey(sel)
		if seen[key] {
			continue
		}
		seen[key] = true
		next, score := b.step(T, newly, sel)
		if score == 0 {
			continue
		}
		out = append(out, candidate{sel: sel, next: next, score: score})
	}
	// Best score first; among equals, fewer forwarders (sparser
	// selections leave more echoers to revive stalled transmitters
	// later); then enumeration order for determinism.
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].score != out[j].score {
			return out[i].score > out[j].score
		}
		return ones(out[i].sel) < ones(out[j].sel)
	})
	if len(out) > branchMax {
		out = out[:branchMax]
	}
	return out
}

func selKey(sel []bool) string {
	b := make([]byte, len(sel))
	for i, s := range sel {
		if s {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b)
}

func ones(sel []bool) int {
	c := 0
	for _, s := range sel {
		if s {
			c++
		}
	}
	return c
}

// coverSel greedily marks, in node order, each newly informed node that
// still has an uncovered uninformed neighbor — a cheap approximation of
// a collision-minimizing forwarder set.
func (b *builder) coverSel(newly []int) []bool {
	sel := make([]bool, len(newly))
	covered := map[int]bool{}
	for i, v := range newly {
		for _, w := range b.csr.Neighbors(v) {
			if b.informed[w] || covered[int(w)] {
				continue
			}
			covered[int(w)] = true
			sel[i] = true
		}
	}
	return sel
}

// step simulates one stage under the assignment sel: the echo round
// (bit-0 newly informed echo; transmitters hearing a lone echo continue)
// and the next data round (bit-1 newly informed plus continuers
// transmit). It returns the next transmitter set and how many nodes it
// newly informs.
func (b *builder) step(T, newly []int, sel []bool) (next []int, score int) {
	inNew := map[int]bool{}
	echo := map[int]bool{}
	for i, v := range newly {
		inNew[v] = true
		if sel[i] {
			next = append(next, v)
		} else {
			echo[v] = true
		}
	}
	for _, t := range T {
		echoes := 0
		for _, w := range b.csr.Neighbors(t) {
			if echo[int(w)] {
				echoes++
			}
		}
		if echoes == 1 {
			next = append(next, t)
		}
	}
	sort.Ints(next)
	count := map[int]int{}
	for _, t := range next {
		for _, w := range b.csr.Neighbors(t) {
			if !b.informed[w] && !inNew[int(w)] {
				count[int(w)]++
			}
		}
	}
	for _, c := range count {
		if c == 1 {
			score++
		}
	}
	return next, score
}

// verify runs the real protocol over the constructed labeling and
// confirms that every node but the source received µ — the constructive
// simulation and the engine must agree, so a failure here is a bug, not
// a search miss. It runs on a clone of g, so the engine's slab form is
// not left cached on the labeled graph.
func verify(g *graph.Graph, labels []core.Label, source int) error {
	ps, opt, release := Plan(g, labels, source, "µ")
	res := radio.Run(g.Clone(), ps, opt)
	release()
	rounds, _, _ := core.Informed(res, source, -1)
	for v, r := range rounds {
		if v != source && r == radio.NoReception {
			return fmt.Errorf("gjp: internal error: constructed labeling leaves node %d uninformed", v)
		}
	}
	return nil
}
