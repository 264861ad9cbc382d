package domset_test

import (
	"slices"
	"testing"
	"testing/quick"

	"radiobcast/internal/domset"
	"radiobcast/internal/domset/domsettest"
	"radiobcast/internal/graph"
	"radiobcast/internal/nodeset"
)

// pruneViaWords runs Pruner on set-typed inputs, converting at the seam.
func pruneViaWords(t *testing.T, p *domset.Pruner, g *graph.Graph, candidates, targets *nodeset.Set, order domset.PruneOrder) (*nodeset.Set, error) {
	t.Helper()
	cand := make([]int32, 0, candidates.Count())
	candidates.ForEach(func(v int) { cand = append(cand, int32(v)) })
	words := make([]uint64, (g.N()+63)/64)
	targets.ForEach(func(v int) { words[v/64] |= 1 << (v % 64) })
	csr := g.Freeze()
	got, err := p.Prune(nil, csr, graph.NewBitCSR(csr), cand, words, targets.Count(), order)
	if err != nil {
		return nil, err
	}
	return nodeset.OfInt32(g.N(), got), nil
}

// TestPrunerMatchesMinimalSubset pins the word-parallel pruner element-
// for-element equal to the scalar reference across random graphs,
// candidate/target splits and every prune order.
func TestPrunerMatchesMinimalSubset(t *testing.T) {
	f := func(seed int64) bool {
		n := 3 + int(uint64(seed)%70)
		g := graph.GNPConnected(n, 0.2, seed)
		p := domset.NewPruner(n)
		// Candidates: every third node plus node 0; targets: the rest that
		// have a candidate neighbour (so domination holds by construction).
		candidates := nodeset.New(n)
		for v := 0; v < n; v += 3 {
			candidates.Add(v)
		}
		candidates.Add(0)
		csr := g.Freeze()
		targets := nodeset.New(n)
		for v := 0; v < n; v++ {
			if candidates.Has(v) {
				continue
			}
			for _, w := range csr.Neighbors(v) {
				if candidates.Has(int(w)) {
					targets.Add(v)
					break
				}
			}
		}
		if targets.Empty() {
			return true
		}
		for _, order := range domset.Orders {
			want, err1 := domsettest.MinimalSubset(g, candidates, targets, order)
			got, err2 := pruneViaWords(t, p, g, candidates, targets, order)
			if (err1 == nil) != (err2 == nil) {
				return false
			}
			if err1 == nil && !got.Equal(want) {
				t.Logf("seed %d order %v: got %v want %v", seed, order, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestPrunerUndominatedTarget checks the error path mirrors the scalar
// message and hands back the caller's slice as it was, that scratch state
// is reset so the Pruner stays reusable, and that the subset is appended
// after what the caller's slice holds.
func TestPrunerUndominatedTarget(t *testing.T) {
	g := graph.Path(5)
	p := domset.NewPruner(5)
	csr := g.Freeze()
	bcsr := graph.NewBitCSR(csr)
	targets := []uint64{1 << 4} // node 4's only neighbour is 3
	dst := []int32{2}
	if got, err := p.Prune(dst, csr, bcsr, []int32{0, 1}, targets, 1, domset.Ascending); err == nil {
		t.Fatal("expected undominated-target error")
	} else if !slices.Equal(got, dst) {
		t.Fatalf("Prune error path returned %v, want the caller's %v", got, dst)
	}
	// Reuse after the error: {3} dominates {4} and is already minimal.
	got, err := p.Prune(dst, csr, bcsr, []int32{3}, targets, 1, domset.Ascending)
	if err != nil {
		t.Fatalf("reuse after error: %v", err)
	}
	if !slices.Equal(got, []int32{2, 3}) {
		t.Fatalf("Prune = %v, want [2 3]", got)
	}
}

// TestPrunerReuseAcrossCalls drives one Pruner through many stages'
// worth of calls, checking the sparse reset leaves no residue.
func TestPrunerReuseAcrossCalls(t *testing.T) {
	g := graph.Grid(7, 7)
	p := domset.NewPruner(g.N())
	for trial := 0; trial < 20; trial++ {
		candidates := nodeset.New(g.N())
		for v := trial % 7; v < g.N(); v += 7 {
			candidates.Add(v)
		}
		csr := g.Freeze()
		targets := nodeset.New(g.N())
		for v := 0; v < g.N(); v++ {
			if candidates.Has(v) {
				continue
			}
			for _, w := range csr.Neighbors(v) {
				if candidates.Has(int(w)) {
					targets.Add(v)
					break
				}
			}
		}
		if targets.Empty() {
			continue
		}
		want, err1 := domsettest.MinimalSubset(g, candidates, targets, domset.Ascending)
		got, err2 := pruneViaWords(t, p, g, candidates, targets, domset.Ascending)
		if err1 != nil || err2 != nil {
			t.Fatalf("trial %d: errs %v / %v", trial, err1, err2)
		}
		if !got.Equal(want) {
			t.Fatalf("trial %d: got %v want %v", trial, got, want)
		}
	}
}
