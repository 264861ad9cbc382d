// Benchmark harness: one target per experiment of EXPERIMENTS.md, so the
// paper's artifacts can be regenerated and timed with
//
//	go test -bench=. -benchmem
//
// Broadcast-level benchmarks go through the public radiobcast facade; the
// benchmarks of internal machinery (stage construction, dominating-set
// pruning, the experiment registry) keep their internal imports on purpose.
package radiobcast_test

import (
	"context"
	"fmt"
	"testing"

	"radiobcast"
	"radiobcast/internal/anonymity"
	"radiobcast/internal/cdetect"
	"radiobcast/internal/core"
	"radiobcast/internal/domset"
	"radiobcast/internal/experiments"
	"radiobcast/internal/graph"
	"radiobcast/internal/nodeset"
	"radiobcast/internal/onebit"
	"radiobcast/internal/store"
)

// benchFamilies is the family subset used for scaling benchmarks (the full
// 14-family sweep runs in the experiments harness; benchmarks track a
// representative spread: sparse/deep, planar, random, dense).
var benchFamilies = []string{"path", "grid", "gnp-sparse", "complete"}

var benchSizes = []int{64, 256, 1024}

func benchNet(b *testing.B, family string, n int) *radiobcast.Network {
	b.Helper()
	net, err := radiobcast.Family(family, n)
	if err != nil {
		b.Fatal(err)
	}
	return net
}

// BenchmarkFig1 regenerates the paper's Figure 1 (experiment FIG1).
func BenchmarkFig1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := radiobcast.Run(radiobcast.Figure1(), "b", radiobcast.WithMessage("µ"))
		if err != nil {
			b.Fatal(err)
		}
		if out.CompletionRound != 7 {
			b.Fatalf("completion %d", out.CompletionRound)
		}
	}
}

// BenchmarkLabeling measures λ construction (stages + labels; experiments
// L26/F31) through the facade's labeling step. Labeling caches nothing on
// the graph, so every iteration builds the slab form a first-seen graph
// needs (BenchmarkBitCSR times that part alone).
func BenchmarkLabeling(b *testing.B) {
	for _, fam := range benchFamilies {
		for _, n := range benchSizes {
			net := benchNet(b, fam, n)
			b.Run(fmt.Sprintf("%s/n=%d", fam, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := radiobcast.LabelNetwork(net, "b"); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkBitCSR times graph.NewBitCSR, the word-parallel slab form the
// λ kernel builds once per labeling, on BenchmarkLabeling's cells.
// Complete graphs build none in λ (the source informs every node), but
// the cells are timed alike.
func BenchmarkBitCSR(b *testing.B) {
	for _, fam := range benchFamilies {
		for _, n := range benchSizes {
			csr := benchNet(b, fam, n).Graph.Freeze()
			b.Run(fmt.Sprintf("%s/n=%d", fam, n), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					graph.NewBitCSR(csr)
				}
			})
		}
	}
}

// BenchmarkFreeze times Graph.Freeze turning an edit buffer into the CSR
// on BenchmarkLabeling's cells, renumbered by a random permutation so
// the buffer arrives unsorted, as an uploaded edge list does. The edits
// are made with the timer stopped, a batch of graphs at a time so that
// stopping it costs little, and the batch holds about 2²⁰ edges.
func BenchmarkFreeze(b *testing.B) {
	for _, fam := range benchFamilies {
		for _, n := range benchSizes {
			base := benchNet(b, fam, n).Graph.Edges()
			perm := graph.RandomPermutation(n, 2)
			edges := make([][2]int, len(base))
			for i, e := range base {
				edges[i] = [2]int{perm[e[0]], perm[e[1]]}
			}
			batch := make([]*graph.Graph, max(1, min(64, (1<<20)/len(edges))))
			b.Run(fmt.Sprintf("%s/n=%d", fam, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i += len(batch) {
					b.StopTimer()
					k := min(len(batch), b.N-i)
					for j := range batch[:k] {
						g := graph.New(n)
						g.Grow(len(edges))
						for _, e := range edges {
							g.AddEdge(e[0], e[1])
						}
						batch[j] = g
					}
					b.StartTimer()
					for _, g := range batch[:k] {
						g.Freeze()
					}
				}
			})
		}
	}
}

// BenchmarkFingerprint times the first Fingerprint call of a frozen graph
// on BenchmarkLabeling's cells: the FNV-1a hash of its CSR, which a
// graph computes once, when a cache key first asks for it. A graph keeps
// its hash, so each iteration hashes a fresh Clone of an unhashed graph
// (two small allocations besides the hash).
func BenchmarkFingerprint(b *testing.B) {
	for _, fam := range benchFamilies {
		for _, n := range benchSizes {
			g := benchNet(b, fam, n).Graph
			g.Freeze()
			b.Run(fmt.Sprintf("%s/n=%d", fam, n), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					g.Clone().Fingerprint()
				}
			})
		}
	}
}

// codecCell is one of BenchmarkLabeling's cells with its λ labeling and
// the labeling's wire bytes.
type codecCell struct {
	name string
	net  *radiobcast.Network
	l    *radiobcast.Labeling
	blob []byte
}

func codecCells(b *testing.B) []codecCell {
	b.Helper()
	var cells []codecCell
	for _, fam := range benchFamilies {
		for _, n := range benchSizes {
			net := benchNet(b, fam, n)
			l, err := radiobcast.LabelNetwork(net, "b")
			if err != nil {
				b.Fatal(err)
			}
			blob, err := l.MarshalBinary()
			if err != nil {
				b.Fatal(err)
			}
			cells = append(cells, codecCell{fmt.Sprintf("%s/n=%d", fam, n), net, l, blob})
		}
	}
	return cells
}

// BenchmarkCodec times the wire codec on BenchmarkLabeling's cells and
// labelings: marshal; decode-onto, the decode of a store hit onto the
// request's graph; and unmarshal, the decode that builds its own graph
// (ReadLabeling). A store hit costs BenchmarkStoreGet plus decode-onto,
// which is what to set against BenchmarkLabeling's λ on the same cell.
func BenchmarkCodec(b *testing.B) {
	cells := codecCells(b)
	ops := []struct {
		name string
		run  func(c codecCell) error
	}{
		{"marshal", func(c codecCell) error { _, err := c.l.MarshalBinary(); return err }},
		{"decode-onto", func(c codecCell) error { return new(radiobcast.Labeling).DecodeOnto(c.blob, c.net.Graph) }},
		{"unmarshal", func(c codecCell) error { return new(radiobcast.Labeling).UnmarshalBinary(c.blob) }},
	}
	for _, op := range ops {
		b.Run(op.name, func(b *testing.B) {
			for _, c := range cells {
				b.Run(c.name, func(b *testing.B) {
					b.ReportAllocs()
					for b.Loop() {
						if err := op.run(c); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}

// BenchmarkStoreGet times store.Get on an open store — the read half of a
// store hit: the index lookup, the blob file read, its SHA-256 check and
// the access-time touch — for the blobs of BenchmarkCodec's cells.
func BenchmarkStoreGet(b *testing.B) {
	st, err := store.Open(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	for _, c := range codecCells(b) {
		g := c.net.Graph
		key := store.Key{Fingerprint: g.Fingerprint(), N: g.N(), M: g.M(), Scheme: c.l.Scheme, Source: c.l.Source}
		if err := st.Put(key, c.blob); err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, ok := st.Get(key); !ok {
					b.Fatal("store miss")
				}
			}
		})
	}
}

// BenchmarkSessionCacheMiss measures a Session's cold-path label request:
// cache lookup, single-flight registration, λ construction, and LRU
// insert. A fresh Session per iteration keeps every request a miss, so
// this is the end-to-end cost a daemon pays for a first-seen
// (graph, source, scheme) key; contrast with the warm path, which is a
// fingerprint lookup.
func BenchmarkSessionCacheMiss(b *testing.B) {
	for _, fam := range []string{"path", "grid"} {
		net := benchNet(b, fam, 1024)
		net.Graph.Freeze()
		b.Run(fmt.Sprintf("%s/n=1024", fam), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sess := radiobcast.NewSession()
				if _, err := sess.Label(context.Background(), net, "b"); err != nil {
					b.Fatal(err)
				}
				if st := sess.Stats(); st.Misses != 1 {
					b.Fatalf("stats = %+v, want exactly one miss", st)
				}
			}
		})
	}
}

// BenchmarkEdgeListGraph is the daemon's edge-list path for a first-seen
// upload: graph.New and AddEdge over a renumbered 4096-node G(n, 6/n),
// then the connectivity check and the fingerprint the labeling cache
// keys on. It builds the graph a label-cold request keeps in the cache.
func BenchmarkEdgeListGraph(b *testing.B) {
	const n = 4096
	base := graph.StreamGNPConnected(n, 6.0/n, 1).Edges()
	perm := graph.RandomPermutation(n, 2)
	edges := make([][2]int, len(base))
	for i, e := range base {
		edges[i] = [2]int{perm[e[0]], perm[e[1]]}
	}
	b.ReportAllocs()
	for b.Loop() {
		g := graph.New(n)
		for _, e := range edges {
			g.AddEdge(e[0], e[1])
		}
		if !g.IsConnected() {
			b.Fatal("renumbered G(n, p) is disconnected")
		}
		g.Fingerprint()
	}
}

// BenchmarkFamily times what Session.Family does for a member it has not
// cached: build the family graph, then Fingerprint, which freezes and
// hashes it. The gnp cells run GNPConnected's pair loop; path/n=4096 is
// a control that does not reach it.
func BenchmarkFamily(b *testing.B) {
	for _, c := range []struct {
		family string
		n      int
	}{
		{"gnp-sparse", 256}, {"gnp-sparse", 1024}, {"gnp-sparse", 4096},
		{"gnp-dense", 256}, {"gnp-dense", 1024}, {"path", 4096},
	} {
		b.Run(fmt.Sprintf("%s/n=%d", c.family, c.n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				net, err := radiobcast.Family(c.family, c.n)
				if err != nil {
					b.Fatal(err)
				}
				net.Graph.Fingerprint()
			}
		})
	}
}

// BenchmarkStages isolates the §2.1 sequence construction (experiment
// L26) on the deepest family, path (ℓ = n), and a shallow one,
// gnp-sparse: its allocations must not grow with ℓ.
func BenchmarkStages(b *testing.B) {
	for _, fam := range []string{"path", "gnp-sparse"} {
		for _, n := range benchSizes {
			g := benchNet(b, fam, n).Graph
			b.Run(fmt.Sprintf("%s/n=%d", fam, n), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					if _, err := core.BuildStages(g, 0, core.BuildOptions{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkMinimalDomset measures the minimality pruning that powers DOM_i
// (experiment ABLDOM) on domset.Pruner, the pruner the stage construction
// runs.
func BenchmarkMinimalDomset(b *testing.B) {
	for _, n := range benchSizes {
		g := benchNet(b, "gnp-sparse", n).Graph
		// Candidates: BFS layer 1 (ascending); targets: layer 2.
		layers := g.Layers(0)
		if len(layers) < 3 {
			b.Skip("graph too shallow")
		}
		var cand []int32
		nodeset.Of(g.N(), layers[1]...).ForEach(func(v int) { cand = append(cand, int32(v)) })
		targets := nodeset.Of(g.N(), layers[2]...)
		csr := g.Freeze()
		bcsr := graph.NewBitCSR(csr)
		p := domset.NewPruner(g.N())
		var out []int32
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if out, err = p.Prune(out[:0], csr, bcsr, cand, targets.Words(), targets.Count(), domset.Ascending); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchRunLabeled labels once and times repeated facade runs over that
// labeling, reusing one Sim across iterations — the label-once/run-many
// steady state; check validates each outcome beyond AllInformed (may be
// nil).
func benchRunLabeled(b *testing.B, scheme string, sizes []int, check func(*radiobcast.Outcome) error, opts ...radiobcast.Option) {
	sim := radiobcast.NewSim()
	opts = append(opts, radiobcast.WithSim(sim))
	for _, fam := range benchFamilies {
		for _, n := range sizes {
			net := benchNet(b, fam, n)
			l, err := radiobcast.LabelNetwork(net, scheme)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/n=%d", fam, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					out, err := radiobcast.RunLabeled(l, opts...)
					if err != nil {
						b.Fatal(err)
					}
					if !out.AllInformed {
						b.Fatal("incomplete broadcast")
					}
					if check != nil {
						if err := check(out); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}

// BenchmarkBroadcastB runs the full labeled broadcast (experiment T29).
func BenchmarkBroadcastB(b *testing.B) {
	benchRunLabeled(b, "b", benchSizes, nil, radiobcast.WithMessage("m"))
}

// BenchmarkBroadcastBack runs acknowledged broadcast (experiments T39/MSG).
func BenchmarkBroadcastBack(b *testing.B) {
	benchRunLabeled(b, "back", benchSizes, func(out *radiobcast.Outcome) error {
		if out.Graph.N() >= 2 && out.AckRound == 0 {
			return fmt.Errorf("no ack")
		}
		return nil
	}, radiobcast.WithMessage("m"))
}

// BenchmarkCommonRound runs the Back→B composition (experiment CR)
// through experiments.RunCommonRound, both facade runs on one reused Sim.
// One run before the timer sizes the Sim, so no timed run pays for it.
func BenchmarkCommonRound(b *testing.B) {
	net := benchNet(b, "grid", 256)
	sim := radiobcast.NewSim()
	run := func() {
		out, err := experiments.RunCommonRound(net, "m", radiobcast.WithSim(sim))
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.VerifyCommonRound(out); err != nil {
			b.Fatal(err)
		}
	}
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkBroadcastBarb runs the arbitrary-source algorithm (experiment
// ARB): one λarb labeling, broadcasts originating at the far corner, on
// one reused Sim like BenchmarkBroadcastB and BenchmarkBroadcastBack.
func BenchmarkBroadcastBarb(b *testing.B) {
	sim := radiobcast.NewSim()
	for _, fam := range benchFamilies {
		for _, n := range benchSizes {
			net := benchNet(b, fam, n)
			l, err := radiobcast.LabelNetwork(net, "barb")
			if err != nil {
				b.Fatal(err)
			}
			src := net.Graph.N() - 1
			b.Run(fmt.Sprintf("%s/n=%d", fam, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					out, err := radiobcast.RunLabeled(l, radiobcast.WithSource(src),
						radiobcast.WithMessage("m"), radiobcast.WithSim(sim))
					if err != nil {
						b.Fatal(err)
					}
					if !out.AllInformed {
						b.Fatal("incomplete")
					}
				}
			})
		}
	}
}

// BenchmarkBaselines compares the comparison schemes (experiment BASE),
// on one reused Sim like the broadcast benchmarks, so allocs/op is exact.
func BenchmarkBaselines(b *testing.B) {
	net := benchNet(b, "grid", 256)
	sim := radiobcast.NewSim()
	for _, scheme := range []string{"roundrobin", "colorrobin", "centralized"} {
		b.Run(scheme, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := radiobcast.Run(net, scheme, radiobcast.WithMessage("m"), radiobcast.WithSim(sim))
				if err != nil {
					b.Fatal(err)
				}
				if !out.AllInformed {
					b.Fatal("incomplete")
				}
			}
		})
	}
}

// BenchmarkCollisionDetection runs the anonymous beep-pipeline broadcast
// (experiment CD).
func BenchmarkCollisionDetection(b *testing.B) {
	for _, n := range []int{64, 256} {
		g := benchNet(b, "grid", n).Graph
		b.Run(fmt.Sprintf("grid/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := cdetect.Run(g, 0, "µ")
				if err != nil {
					b.Fatal(err)
				}
				if !out.AllDecoded {
					b.Fatal("incomplete")
				}
			}
		})
	}
}

// BenchmarkFourCycle runs the impossibility check (experiment IMP).
func BenchmarkFourCycle(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out := anonymity.RunFourCycle(anonymity.PseudorandomProgram(uint64(i)), 200)
		if out.AntipodeInformed != 0 {
			b.Fatal("impossibility violated")
		}
	}
}

// BenchmarkOneBit verifies the §5 grid construction (experiment ONEBIT);
// the constructive grid labeling is internal (the facade's onebit scheme
// searches instead).
func BenchmarkOneBit(b *testing.B) {
	for _, size := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("grid%dx%d", size, size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := onebit.GridScheme(size, size); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSweep times the batched workload path: a families × sizes ×
// schemes × fault-rates grid executed as one RunSweep job with shared
// frozen graphs, shared labelings and session-pooled reusable engines.
func BenchmarkSweep(b *testing.B) {
	spec := radiobcast.SweepSpec{
		Families:   benchFamilies,
		Sizes:      []int{64, 256},
		Schemes:    []string{"b", "roundrobin", "centralized"},
		FaultRates: []float64{0, 0.01},
		Repeats:    2,
		Workers:    4,
		Mu:         "m",
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		results, err := radiobcast.RunSweep(spec)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range results {
			if c.Err != nil {
				b.Fatal(c.Err)
			}
		}
	}
}

// BenchmarkSweepWorkload runs the grid of the radiobcastd benchmark's
// sweep workload (bench/workloads.go) in process: 288 cells of b and back
// over path, grid and gnp-sparse at 256 and 1024 nodes, from both ends,
// clean, at fault rate 0.02 and under crashes, on two workers. A fresh
// Session per iteration labels all 24 labelings again, as the daemon's
// set-up pass does, so one iteration is that pass without HTTP. Every
// clean cell must verify.
func BenchmarkSweepWorkload(b *testing.B) {
	spec := radiobcast.SweepSpec{
		Families:   []string{"path", "grid", "gnp-sparse"},
		Sizes:      []int{256, 1024},
		Schemes:    []string{"b", "back"},
		Sources:    []int{0, -1},
		FaultRates: []float64{0, 0.02},
		Faults:     []radiobcast.FaultSpec{{Model: radiobcast.FaultModelCrash, Rate: 0.01, Down: 3}},
		Repeats:    4,
		Workers:    2,
		Seed:       1,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cells := 0
		for c, err := range radiobcast.NewSession().Sweep(context.Background(), spec) {
			if err != nil {
				b.Fatal(err)
			}
			if c.Err != nil {
				b.Fatal(c.Err)
			}
			if !c.Cell.Faulted() && !c.Verified {
				b.Fatalf("clean cell %d not verified", c.Index)
			}
			cells++
		}
		if cells != 288 {
			b.Fatalf("sweep returned %d cells, want 288", cells)
		}
	}
}

// BenchmarkExperimentRegistry times each experiment generator end to end in
// quick mode (the EXPERIMENTS.md regeneration path).
func BenchmarkExperimentRegistry(b *testing.B) {
	for _, e := range experiments.Registry {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Gen(experiments.Config{Quick: true, Workers: 4}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
