package graph

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// oracle is the sorted-adjacency graph this package stored before the CSR
// became a Graph's only adjacency: one []int list per node, kept sorted
// by insertion. FuzzGraphMatchesOracle pins Graph to it.
type oracle struct {
	n, m int
	adj  [][]int
}

func newOracle(n int) *oracle { return &oracle{n: n, adj: make([][]int, n)} }

func (o *oracle) HasEdge(u, v int) bool {
	a := o.adj[u]
	i := sort.SearchInts(a, v)
	return i < len(a) && a[i] == v
}

func (o *oracle) AddEdge(u, v int) {
	if u == v || o.HasEdge(u, v) {
		return
	}
	o.insert(u, v)
	o.insert(v, u)
	o.m++
}

func (o *oracle) RemoveEdge(u, v int) {
	if u == v || !o.HasEdge(u, v) {
		return
	}
	o.remove(u, v)
	o.remove(v, u)
	o.m--
}

func (o *oracle) insert(u, v int) {
	a := o.adj[u]
	i := sort.SearchInts(a, v)
	a = append(a, 0)
	copy(a[i+1:], a[i:])
	a[i] = v
	o.adj[u] = a
}

func (o *oracle) remove(u, v int) {
	a := o.adj[u]
	i := sort.SearchInts(a, v)
	copy(a[i:], a[i+1:])
	o.adj[u] = a[:len(a)-1]
}

func (o *oracle) Edges() [][2]int {
	out := make([][2]int, 0, o.m)
	for u := 0; u < o.n; u++ {
		for _, v := range o.adj[u] {
			if u < v {
				out = append(out, [2]int{u, v})
			}
		}
	}
	return out
}

func (o *oracle) BFS(src int) []int {
	dist := make([]int, o.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range o.adj[v] {
			if dist[w] == -1 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// csr flattens the lists into CSR arrays.
func (o *oracle) csr() (offsets, targets []int32) {
	offsets = make([]int32, o.n+1)
	targets = make([]int32, 0, 2*o.m)
	for v := 0; v < o.n; v++ {
		offsets[v] = int32(len(targets))
		for _, w := range o.adj[v] {
			targets = append(targets, int32(w))
		}
	}
	offsets[o.n] = int32(len(targets))
	return offsets, targets
}

// Fingerprint is FNV-1a over n, the offsets and the targets, each as
// eight little-endian bytes.
func (o *oracle) Fingerprint() uint64 {
	h := uint64(14695981039346656037)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= 1099511628211
			x >>= 8
		}
	}
	offsets, targets := o.csr()
	mix(uint64(o.n))
	for _, x := range offsets {
		mix(uint64(uint32(x)))
	}
	for _, x := range targets {
		mix(uint64(uint32(x)))
	}
	return h
}

// matchOracle compares every read of g with the oracle's answer.
func matchOracle(t *testing.T, g *Graph, o *oracle) {
	t.Helper()
	if g.N() != o.n || g.M() != o.m {
		t.Fatalf("n, m = %d, %d; oracle %d, %d", g.N(), g.M(), o.n, o.m)
	}
	for v := 0; v < o.n; v++ {
		if got := g.Neighbors(v); len(got)+len(o.adj[v]) > 0 && !reflect.DeepEqual(got, o.adj[v]) {
			t.Fatalf("Neighbors(%d) = %v, oracle %v", v, got, o.adj[v])
		}
	}
	if got, want := g.Edges(), o.Edges(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Edges = %v, oracle %v", got, want)
	}
	if got, want := g.Fingerprint(), o.Fingerprint(); got != want {
		t.Fatalf("Fingerprint = %#x, oracle %#x", got, want)
	}
	if o.n > 0 {
		if got, want := g.BFS(0), o.BFS(0); !reflect.DeepEqual(got, want) {
			t.Fatalf("BFS(0) = %v, oracle %v", got, want)
		}
	}
	offsets, targets := o.csr()
	if c := g.Freeze(); !reflect.DeepEqual(c.Offsets, offsets) || !reflect.DeepEqual(c.Targets, targets) {
		t.Fatalf("CSR = {%v %v}, oracle {%v %v}", c.Offsets, c.Targets, offsets, targets)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// FuzzGraphMatchesOracle applies one random interleaving of edge adds
// (duplicates included), edge removals, HasEdge and full reads to a
// Graph, to the oracle, and through SetEdge to a caller-owned CSR, then
// requires all three to agree. Reads between adds make later adds reopen
// the edit buffer from the CSR. A Graph has no removal, so a removal
// edits the oracle and the CSR, as churn edits its CSR, and rebuilds the
// Graph from the oracle's edges.
func FuzzGraphMatchesOracle(f *testing.F) {
	f.Add(uint8(4), []byte{0, 0, 1, 1, 1, 2, 4, 0, 1, 3, 1, 0, 5, 0, 0, 0, 1, 0})
	f.Add(uint8(7), []byte{0, 0, 6, 2, 6, 5, 3, 6, 0, 5, 0, 0, 0, 0, 6, 3, 0, 6, 4, 2, 3})
	f.Add(uint8(1), []byte{4, 0, 0, 5, 0, 0})
	f.Add(uint8(30), []byte{0, 3, 9, 1, 9, 20, 2, 20, 3, 5, 0, 0, 3, 9, 3, 0, 9, 3, 4, 3, 9, 3, 3, 9, 0, 3, 9})
	f.Fuzz(func(t *testing.T, nb uint8, ops []byte) {
		n := 1 + int(nb%48)
		g, o := New(n), newOracle(n)
		var edited CSR
		edited.Offsets = make([]int32, n+1)
		for i := 0; i+2 < len(ops); i += 3 {
			u, v := int(ops[i+1])%n, int(ops[i+2])%n
			switch ops[i] % 6 {
			case 0, 1, 2:
				if u != v {
					g.AddEdge(u, v)
					o.AddEdge(u, v)
					edited.SetEdge(u, v, true)
				}
			case 3:
				o.RemoveEdge(u, v)
				edited.SetEdge(u, v, false)
				g = New(n)
				for _, e := range o.Edges() {
					g.AddEdge(e[0], e[1])
				}
			case 4:
				if got, want := g.HasEdge(u, v), o.HasEdge(u, v); got != want {
					t.Fatalf("op %d: HasEdge(%d, %d) = %v, oracle %v", i/3, u, v, got, want)
				}
			case 5:
				matchOracle(t, g, o)
			}
		}
		matchOracle(t, g, o)
		offsets, targets := o.csr()
		if !reflect.DeepEqual(edited.Offsets, offsets) || len(edited.Targets)+len(targets) > 0 && !reflect.DeepEqual(edited.Targets, targets) {
			t.Fatalf("SetEdge CSR = {%v %v}, oracle {%v %v}", edited.Offsets, edited.Targets, offsets, targets)
		}
	})
}

// reads lists every read method of Graph, each as a function whose
// result can be compared with reflect.DeepEqual.
var reads = []struct {
	name string
	read func(*Graph) any
}{
	{"N", func(g *Graph) any { return g.N() }},
	{"M", func(g *Graph) any { return g.M() }},
	{"String", func(g *Graph) any { return g.String() }},
	{"Freeze", func(g *Graph) any { c := g.Freeze(); return [2][]int32{c.Offsets, c.Targets} }},
	{"Fingerprint", func(g *Graph) any { return g.Fingerprint() }},
	{"Neighbors", func(g *Graph) any {
		out := make([][]int, g.N())
		for v := range out {
			out[v] = g.Neighbors(v)
		}
		return out
	}},
	{"Degree", func(g *Graph) any {
		out := make([]int, g.N())
		for v := range out {
			out[v] = g.Degree(v)
		}
		return out
	}},
	{"MaxDegree", func(g *Graph) any { return g.MaxDegree() }},
	{"HasEdge", func(g *Graph) any {
		var out []bool
		for u := 0; u < g.N(); u++ {
			for v := 0; v < g.N(); v++ {
				out = append(out, g.HasEdge(u, v))
			}
		}
		return out
	}},
	{"Edges", func(g *Graph) any { return g.Edges() }},
	{"Validate", func(g *Graph) any { return g.Validate() }},
	{"Clone", func(g *Graph) any { return g.Clone().Edges() }},
	{"BFS", func(g *Graph) any { return g.BFS(g.N() / 2) }},
	{"Layers", func(g *Graph) any { return g.Layers(0) }},
	{"IsConnected", func(g *Graph) any { return g.IsConnected() }},
	{"ConnectedComponents", func(g *Graph) any { return g.ConnectedComponents() }},
	{"Eccentricity", func(g *Graph) any { return g.Eccentricity(0) }},
	{"Square", func(g *Graph) any { return g.Square().Edges() }},
	{"GreedyColoring", func(g *Graph) any { c, k := g.GreedyColoring(); return [2]any{c, k} }},
	{"Distance2Coloring", func(g *Graph) any { c, k := g.Distance2Coloring(); return [2]any{c, k} }},
}

// TestStreamedGraphReadsMatchAddEdge: every read method, called as the
// first read of a StreamGNPConnected graph, answers as it does on the
// same edges added one by one through New and AddEdge. (Traversals on
// streamed graphs used to index an adjacency form they never built.)
func TestStreamedGraphReadsMatchAddEdge(t *testing.T) {
	const n, p, seed = 120, 0.04, 3
	for _, r := range reads {
		s := StreamGNPConnected(n, p, seed)
		g := New(n)
		for i := len(s.buf) - 1; i >= 0; i-- { // reversed, endpoints swapped
			k := s.buf[i]
			g.AddEdge(int(k%n), int(k/n))
		}
		if got, want := r.read(s), r.read(g); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: streamed graph gives %v, New+AddEdge gives %v", r.name, got, want)
		}
	}
}

// TestFirstReadDropsEditBuffer: whichever read comes first, it leaves a
// graph built with New and AddEdge holding its CSR and no edit buffer.
func TestFirstReadDropsEditBuffer(t *testing.T) {
	for _, r := range reads {
		g := New(6)
		for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {1, 0}, {4, 5}, {2, 3}} {
			g.AddEdge(e[0], e[1])
		}
		if g.buf == nil {
			t.Fatal("precondition: AddEdge left no edit buffer")
		}
		r.read(g)
		if r.name == "N" {
			continue // N reads no adjacency
		}
		if g.buf != nil || g.csr == nil {
			t.Errorf("%s: after the first read buf=%v csr=%v", r.name, g.buf, g.csr)
		}
	}
}

// TestConcurrentReadsOfFrozenGraph runs the read paths a serving daemon
// shares across requests on one frozen graph from several goroutines at
// once; under -race any write on those paths fails the test.
func TestConcurrentReadsOfFrozenGraph(t *testing.T) {
	g := GNPConnected(200, 0.05, 11)
	g.Freeze()
	wantBFS, wantEdges := g.BFS(7), g.Edges()
	// The fingerprint comes from a twin, so that g is first hashed by the
	// goroutines below, racing.
	wantFP := GNPConnected(200, 0.05, 11).Fingerprint()
	var wg sync.WaitGroup
	start := make(chan struct{})
	bits := make([]*BitCSR, 4)
	for i := range bits {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if g.Fingerprint() != wantFP {
				t.Error("a racing first Fingerprint call disagrees with the twin's")
			}
			bits[i] = g.Freeze().Bits()
			if !reflect.DeepEqual(g.BFS(7), wantBFS) || !reflect.DeepEqual(g.Edges(), wantEdges) || g.Fingerprint() != wantFP {
				t.Error("concurrent read disagrees with the sequential one")
			}
		}()
	}
	close(start)
	wg.Wait()
	for _, b := range bits[1:] {
		if !reflect.DeepEqual(b, bits[0]) {
			t.Fatal("racing Bits calls built different slab forms")
		}
	}
}

// gnpOracle is GNPConnected's plain pair loop below streamGNPThreshold,
// one Float64 call per pair, on any source.
func gnpOracle(n int, p float64, src rand.Source) *Graph {
	r := rand.New(src)
	g := New(n)
	parent := make([]int, n)
	for i := 1; i < n; i++ {
		parent[i] = r.Intn(i)
		g.AddEdge(i, parent[i])
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if parent[j] != i && parent[i] != j && r.Float64() < p {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

// matchGNPOracle requires two graphs to have the same edges.
func matchGNPOracle(t *testing.T, g, want *Graph, format string, args ...any) {
	t.Helper()
	if g.M() != want.M() || g.Fingerprint() != want.Fingerprint() {
		t.Fatalf(format+": m=%d fp=%#x, oracle m=%d fp=%#x", append(args, g.M(), g.Fingerprint(), want.M(), want.Fingerprint())...)
	}
}

// TestGNPMatchesOracle: GNPConnected builds the plain loop's graph for
// every size, seed and probability, including p outside [0, 1] and NaN.
// It also fails if math/rand's value stream ever changes, since the
// loop continues that stream by itself.
func TestGNPMatchesOracle(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 10, 64, 257, 700} {
		for _, p := range []float64{-1, math.Inf(-1), math.NaN(), 0, 1e-300, 2 / float64(n), 0.3, 0.9, 1 - 0x1p-53, 1, 1.5, math.Inf(1)} {
			for _, seed := range []int64{int64(n), 1, -7, 1 << 40} {
				matchGNPOracle(t, GNPConnected(n, p, seed), gnpOracle(n, p, rand.NewSource(seed)), "n=%d p=%g seed=%d", n, p, seed)
			}
		}
	}
}

// FuzzGNPMatchesOracle is TestGNPMatchesOracle on fuzzed sizes,
// probabilities and seeds.
func FuzzGNPMatchesOracle(f *testing.F) {
	f.Add(uint16(10), 0.3, int64(1))
	f.Add(uint16(257), 2.0/257, int64(257))
	f.Add(uint16(64), 1.5, int64(-3))
	f.Add(uint16(3), math.NaN(), int64(0))
	f.Fuzz(func(t *testing.T, nb uint16, p float64, seed int64) {
		n := int(nb % 401)
		matchGNPOracle(t, GNPConnected(n, p, seed), gnpOracle(n, p, rand.NewSource(seed)), "n=%d p=%g seed=%d", n, p, seed)
	})
}

// lfib is math/rand's additive lagged Fibonacci source started from
// chosen outputs: its first 607 outputs are ring's, and every later
// output is the sum of the outputs 607 and 273 before it. It counts the
// outputs on which Float64 rounds to 1.
type lfib struct {
	ring    [rngLen]uint64
	i       int
	redraws int
}

func (s *lfib) Uint64() uint64 {
	y := s.ring[s.i]
	s.ring[s.i] = y + s.ring[(s.i+rngLen-rngTap)%rngLen]
	s.i = (s.i + 1) % rngLen
	if y&(1<<63-1) >= 1<<63-1<<9 {
		s.redraws++
	}
	return y
}

func (s *lfib) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }
func (s *lfib) Seed(int64)   { panic("lfib: Seed") }

// newLfib starts an lfib at the next output of src.
func newLfib(src rand.Source64) *lfib {
	s := new(lfib)
	for i := range s.ring {
		s.ring[i] = src.Uint64()
	}
	return s
}

// TestLfibContinuesMathRand: started from math/rand outputs, lfib
// produces math/rand's next outputs, so it stands in for the source.
func TestLfibContinuesMathRand(t *testing.T) {
	for _, seed := range []int64{1, 42, -5} {
		src, ref := rand.NewSource(seed).(rand.Source64), rand.NewSource(seed).(rand.Source64)
		src.Uint64()
		ref.Uint64()
		s := newLfib(src)
		for k := 0; k < 5000; k++ {
			if got, want := s.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d: output %d is %#x, math/rand gives %#x", seed, k, got, want)
			}
		}
	}
}

// TestGNPRedrawsLikeFloat64: Float64 rounds an output in
// [2⁶³−2⁹, 2⁶³), masked, to 1 and draws again, which happens about once
// in 2⁵⁴ outputs, so no seed reaches it. An lfib with such outputs
// planted among its first 607 outputs, and, through the recurrence,
// after them, drives GNPConnected's loop and the plain one alike.
func TestGNPRedrawsLikeFloat64(t *testing.T) {
	const top = 1<<63 - 1<<9 // the least masked output that rounds to 1
	base := newLfib(rand.NewSource(3).(rand.Source64))
	planted := 0
	for i := 300; i < rngLen; i += 7 {
		// Both halves of the range, either top bit, and the output just
		// below it, which does not round to 1.
		base.ring[i] = []uint64{top, 1<<64 - 1, 1<<63 | (top + 77), top - 1}[i%4]
		if i%4 != 3 {
			planted++
		}
	}
	for m := 650; m < 880; m += 50 {
		// Output m = output m−607 + output m−273.
		base.ring[m-rngLen] = top + uint64(m-650) - base.ring[m-rngTap]
		planted++
	}
	for _, n := range []int{64, 150, 280} {
		for _, p := range []float64{0.05, 0.3, 0.9, 1 - 0x1p-53, 1, 1.5} {
			oracleSrc, src := *base, *base
			want := gnpOracle(n, p, &oracleSrc)
			if oracleSrc.redraws < planted {
				t.Fatalf("n=%d: the plain loop drew %d outputs that round to 1, want at least the %d planted", n, oracleSrc.redraws, planted)
			}
			matchGNPOracle(t, gnpConnected(n, p, &src), want, "n=%d p=%g", n, p)
		}
	}
}
