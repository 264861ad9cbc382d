package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"path/filepath"

	"radiobcast"
	"radiobcast/client"
	"radiobcast/internal/graph"
)

// workload is one traffic mix. Its requests are a pure function of the
// seed and the request index, so the load against the daemon and the
// traced in-process replay send the same sequence.
type workload interface {
	// clients is the number of closed-loop clients, one connection each.
	clients() int
	// daemonArgs are the radiobcastd flags beyond -addr and -rate; dir is
	// the run's scratch directory.
	daemonArgs(dir string) []string
	// setup sends the workload's distinct requests once, in order: the
	// work a freshly started daemon does before it serves steadily.
	setup(ctx context.Context, b backend) error
	// do sends request i and checks the response.
	do(ctx context.Context, b backend, i int) error
	// cells lists the distinct labeling cells the workload touches, for
	// the layer ladder.
	cells() []cell
}

// populator is a workload whose store must be filled, by an earlier
// daemon, before the daemon under test starts.
type populator interface {
	populate(ctx context.Context, b backend) error
}

// cell is one (graph, scheme, source) labeling key.
type cell struct {
	graph  client.GraphSpec
	scheme string
	source int
}

var workloadNames = []string{"run-hot", "label-cold", "store-restart", "sweep"}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "run-hot":
		return newRunHot(seed)
	case "label-cold":
		return newLabelCold(seed), nil
	case "store-restart":
		return newStoreRestart(seed)
	case "sweep":
		return newSweepMix(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// requestRand is the random source of request i; inputRand(k) that of
// the k-th generated input. Their streams never overlap.
func requestRand(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), uint64(i)))
}

func inputRand(seed int64, k int) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), 1<<63|uint64(k)))
}

func checkLabel(l *radiobcast.Labeling, meta *client.LabelMeta, scheme string, n, m int) error {
	if meta.Scheme != scheme || meta.N != n || meta.M != m {
		return fmt.Errorf("label %s n=%d m=%d: metadata says %s n=%d m=%d", scheme, n, m, meta.Scheme, meta.N, meta.M)
	}
	if l.Scheme != scheme || l.Graph.N() != n || l.Graph.M() != m {
		return fmt.Errorf("label %s n=%d m=%d: blob decodes to %s n=%d m=%d", scheme, n, m, l.Scheme, l.Graph.N(), l.Graph.M())
	}
	return nil
}

// checkRun accepts a fault-free run only when it verified, and a faulted
// one only when it was, as documented, left unverified.
func checkRun(resp *client.RunResponse, scheme string, n, m int, clean bool) error {
	switch {
	case resp.Scheme != scheme || resp.N != n || resp.M != m:
		return fmt.Errorf("run %s n=%d m=%d: response is for %s n=%d m=%d", scheme, n, m, resp.Scheme, resp.N, resp.M)
	case clean && !(resp.Verified && resp.AllInformed):
		return fmt.Errorf("run %s n=%d: clean run not verified: %s", scheme, n, resp.VerifyError)
	case !clean && (resp.Verified || resp.Coverage <= 0 || resp.Coverage > 1):
		return fmt.Errorf("run %s n=%d: faulted run verified=%v coverage=%g", scheme, n, resp.Verified, resp.Coverage)
	}
	return nil
}

// runHot is the steady serving path: /v1/run over recurring keys that
// all stay resident in the LRU, a tenth under jamming and a tenth under
// churn, plus /v1/run-labeled uploads of labelings fetched during set-up.
type runHot struct {
	seed int64
	keys []hotKey
	labs []*radiobcast.Labeling // one per key, fetched by setup
}

type hotKey struct {
	graph  client.GraphSpec
	scheme string
	n, m   int
	edges  [][2]int // candidates for the churn fault's removed edge
}

func newRunHot(seed int64) (*runHot, error) {
	w := &runHot{seed: seed}
	for _, g := range []client.GraphSpec{
		{Family: "path", N: 256}, {Family: "path", N: 1024},
		{Family: "grid", N: 256}, {Family: "grid", N: 1024},
		{Family: "gnp-sparse", N: 256}, {Family: "gnp-sparse", N: 1024},
		{Family: "complete", N: 256},
	} {
		net, err := buildNetwork(g)
		if err != nil {
			return nil, err
		}
		for _, scheme := range []string{"b", "back"} {
			w.keys = append(w.keys, hotKey{g, scheme, net.Graph.N(), net.Graph.M(), net.Graph.Edges()})
		}
	}
	return w, nil
}

func (w *runHot) clients() int               { return 2 }
func (w *runHot) daemonArgs(string) []string { return nil }

func (w *runHot) setup(ctx context.Context, b backend) error {
	w.labs = make([]*radiobcast.Labeling, len(w.keys))
	for i, k := range w.keys {
		l, meta, err := b.Label(ctx, client.LabelRequest{Graph: k.graph, Scheme: k.scheme})
		if err != nil {
			return err
		}
		if err := checkLabel(l, meta, k.scheme, k.n, k.m); err != nil {
			return err
		}
		// Both clients upload this labeling; after Freeze every use of
		// its graph is read-only.
		l.Graph.Freeze()
		w.labs[i] = l
	}
	for _, k := range w.keys {
		resp, err := b.Run(ctx, client.RunRequest{Graph: k.graph, Scheme: k.scheme})
		if err != nil {
			return err
		}
		if err := checkRun(resp, k.scheme, k.n, k.m, true); err != nil {
			return err
		}
	}
	return nil
}

func (w *runHot) do(ctx context.Context, b backend, i int) error {
	r := requestRand(w.seed, i)
	ki := r.IntN(len(w.keys))
	k := &w.keys[ki]
	if r.IntN(8) == 0 {
		resp, err := b.RunLabeled(ctx, w.labs[ki], client.RunLabeledParams{})
		if err != nil {
			return err
		}
		return checkRun(resp, k.scheme, k.n, k.m, true)
	}
	req := client.RunRequest{Graph: k.graph, Scheme: k.scheme, Seed: 1 + r.Int64N(1<<62)}
	switch r.IntN(10) {
	case 0:
		req.Fault = &radiobcast.FaultSpec{Model: radiobcast.FaultModelRate, Rate: 0.05}
	case 1:
		e := k.edges[r.IntN(len(k.edges))]
		req.Fault = &radiobcast.FaultSpec{
			Model:  radiobcast.FaultModelChurn,
			Events: []radiobcast.ChurnEvent{{Round: 3, U: e[0], V: e[1]}},
		}
	}
	resp, err := b.Run(ctx, req)
	if err != nil {
		return err
	}
	return checkRun(resp, k.scheme, k.n, k.m, req.Fault == nil)
}

func (w *runHot) cells() []cell {
	var cs []cell
	for _, k := range w.keys {
		cs = append(cs, cell{k.graph, k.scheme, 0})
	}
	return cs
}

// labelCold sends only first-seen graphs: every request renumbers one of
// 32 base graphs by a fresh permutation, which changes its fingerprint.
type labelCold struct {
	seed  int64
	bases []coldBase
}

type coldBase struct {
	tree  bool
	n     int
	edges [][2]int
}

func newLabelCold(seed int64) *labelCold {
	w := &labelCold{seed: seed}
	for _, tree := range []bool{false, true} {
		for _, n := range []int{1024, 4096} {
			for j := 0; j < 8; j++ {
				s := inputRand(seed, len(w.bases)).Int64()
				var g *graph.Graph
				if tree {
					g = graph.RandomTree(n, s)
				} else {
					g = graph.StreamGNPConnected(n, 6/float64(n), s)
				}
				w.bases = append(w.bases, coldBase{tree, n, g.Edges()})
			}
		}
	}
	return w
}

func (w *labelCold) clients() int { return 2 }

func (w *labelCold) daemonArgs(dir string) []string {
	return []string{"-store", filepath.Join(dir, "store")}
}

func (w *labelCold) setup(context.Context, backend) error { return nil }

// schemes of a base: b and back on every base, gjp on the trees only,
// since it fails on most connected G(n, p) graphs.
func (b *coldBase) schemes() []string {
	if b.tree {
		return []string{"b", "back", "gjp"}
	}
	return []string{"b", "back"}
}

func (w *labelCold) do(ctx context.Context, b backend, i int) error {
	r := requestRand(w.seed, i)
	base := &w.bases[r.IntN(len(w.bases))]
	perm := r.Perm(base.n)
	edges := make([][2]int, len(base.edges))
	for j, e := range base.edges {
		edges[j] = [2]int{perm[e[0]], perm[e[1]]}
	}
	scheme := []string{"b", "back"}[i%2]
	if base.tree && r.IntN(3) == 0 {
		scheme = "gjp"
	}
	l, meta, err := b.Label(ctx, client.LabelRequest{
		Graph:  client.GraphSpec{Edges: edges, Nodes: base.n},
		Scheme: scheme,
	})
	if err != nil {
		return err
	}
	return checkLabel(l, meta, scheme, base.n, len(base.edges))
}

func (w *labelCold) cells() []cell {
	var cs []cell
	for _, base := range w.bases {
		for _, scheme := range base.schemes() {
			cs = append(cs, cell{client.GraphSpec{Edges: base.edges, Nodes: base.n}, scheme, 0})
		}
	}
	return cs
}

// storeRestart serves /v1/label from a store an earlier daemon filled,
// through an LRU too small for the key set, so most requests are store
// reads.
type storeRestart struct {
	seed int64
	keys []storeKey
}

type storeKey struct {
	cell
	n, m int
}

func newStoreRestart(seed int64) (*storeRestart, error) {
	w := &storeRestart{seed: seed}
	k := 0
	for _, fam := range []string{"path", "btree", "caterpillar", "grid", "gnp-sparse"} {
		for _, size := range []int{1024, 4096} {
			spec := client.GraphSpec{Family: fam, N: size}
			net, err := buildNetwork(spec)
			if err != nil {
				return nil, err
			}
			n, m := net.Graph.N(), net.Graph.M()
			schemes := []string{"b", "back"}
			// gjp fails from most sources of grids and on G(n, p) graphs.
			if fam != "grid" && fam != "gnp-sparse" {
				schemes = append(schemes, "gjp")
			}
			for _, src := range inputRand(seed, k).Perm(n)[:8] {
				for _, scheme := range schemes {
					w.keys = append(w.keys, storeKey{cell{spec, scheme, src}, n, m})
				}
			}
			k++
		}
	}
	return w, nil
}

func (w *storeRestart) clients() int { return 2 }

func (w *storeRestart) daemonArgs(dir string) []string {
	return []string{"-store", filepath.Join(dir, "store"), "-cache", "32"}
}

func (w *storeRestart) label(ctx context.Context, b backend, k *storeKey) error {
	l, meta, err := b.Label(ctx, client.LabelRequest{Graph: k.graph, Scheme: k.scheme, Source: k.source})
	if err != nil {
		return err
	}
	return checkLabel(l, meta, k.scheme, k.n, k.m)
}

func (w *storeRestart) populate(ctx context.Context, b backend) error { return w.setup(ctx, b) }

func (w *storeRestart) setup(ctx context.Context, b backend) error {
	for i := range w.keys {
		if err := w.label(ctx, b, &w.keys[i]); err != nil {
			return err
		}
	}
	return nil
}

func (w *storeRestart) do(ctx context.Context, b backend, i int) error {
	r := requestRand(w.seed, i)
	return w.label(ctx, b, &w.keys[r.IntN(len(w.keys))])
}

func (w *storeRestart) cells() []cell {
	cs := make([]cell, len(w.keys))
	for i, k := range w.keys {
		cs[i] = k.cell
	}
	return cs
}

// sweepMix streams one 288-cell /v1/sweep grid after another, each with
// the next fault seed.
type sweepMix struct {
	seed int64 // fault seed of request 0
}

func newSweepMix(seed int64) *sweepMix {
	return &sweepMix{seed: 1 + inputRand(seed, 0).Int64N(1<<40)}
}

const sweepCells = 288

var (
	sweepFamilies = []string{"path", "grid", "gnp-sparse"}
	sweepSizes    = []int{256, 1024} // exact for all three families
	sweepSchemes  = []string{"b", "back"}
	sweepSources  = []int{0, -1}
)

func (w *sweepMix) request(i int) client.SweepRequest {
	return client.SweepRequest{
		Families:   sweepFamilies,
		Sizes:      sweepSizes,
		Schemes:    sweepSchemes,
		Sources:    sweepSources,
		FaultRates: []float64{0, 0.02},
		Faults:     []radiobcast.FaultSpec{{Model: radiobcast.FaultModelCrash, Rate: 0.01, Down: 3}},
		Repeats:    4,
		Seed:       w.seed + int64(i),
	}
}

func (w *sweepMix) clients() int { return 1 }

func (w *sweepMix) daemonArgs(string) []string { return []string{"-sweep-workers", "2"} }

func (w *sweepMix) setup(ctx context.Context, b backend) error { return w.do(ctx, b, 0) }

func (w *sweepMix) do(ctx context.Context, b backend, i int) error {
	n, err := b.Sweep(ctx, w.request(i), func(c client.SweepCellResult) error {
		if c.Error != "" {
			return fmt.Errorf("sweep cell %d: %s", c.Index, c.Error)
		}
		if c.FaultRate == 0 && c.Fault == "" && !c.Verified {
			return fmt.Errorf("sweep cell %d: clean cell not verified", c.Index)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if n != sweepCells {
		return fmt.Errorf("sweep returned %d cells, want %d", n, sweepCells)
	}
	return nil
}

func (w *sweepMix) cells() []cell {
	var cs []cell
	for _, fam := range sweepFamilies {
		for _, size := range sweepSizes {
			for _, scheme := range sweepSchemes {
				for _, src := range sweepSources {
					if src < 0 {
						src += size
					}
					cs = append(cs, cell{client.GraphSpec{Family: fam, N: size}, scheme, src})
				}
			}
		}
	}
	return cs
}
