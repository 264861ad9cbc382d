package graph

import (
	"fmt"
	"math"
	"math/rand"
)

// This file provides the graph families used throughout the experiments.
// All generators are deterministic: random families take an explicit seed.

// Path returns the path P_n: 0 - 1 - ... - n-1.
func Path(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

// Cycle returns the cycle C_n (n ≥ 3).
func Cycle(n int) *Graph {
	if n < 3 {
		panic(fmt.Sprintf("graph: cycle needs n ≥ 3, got %d", n))
	}
	g := Path(n)
	g.AddEdge(n-1, 0)
	return g
}

// Star returns the star K_{1,n-1} with centre 0.
func Star(n int) *Graph {
	g := New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(0, i)
	}
	return g
}

// Wheel returns the wheel: a cycle on nodes 1..n-1 plus hub 0 (n ≥ 4).
func Wheel(n int) *Graph {
	if n < 4 {
		panic(fmt.Sprintf("graph: wheel needs n ≥ 4, got %d", n))
	}
	g := Star(n)
	for i := 1; i < n; i++ {
		j := i + 1
		if j == n {
			j = 1
		}
		g.AddEdge(i, j)
	}
	return g
}

// Complete returns K_n.
func Complete(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	return g
}

// CompleteBipartite returns K_{a,b}: nodes 0..a-1 on one side, a..a+b-1 on
// the other.
func CompleteBipartite(a, b int) *Graph {
	g := New(a + b)
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			g.AddEdge(i, a+j)
		}
	}
	return g
}

// GridIndex maps (row, col) in an rows×cols grid to a node id.
func GridIndex(rows, cols, r, c int) int { return r*cols + c }

// Grid returns the rows×cols grid graph; node (r,c) has id r*cols+c.
func Grid(rows, cols int) *Graph {
	g := New(rows * cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.AddEdge(GridIndex(rows, cols, r, c), GridIndex(rows, cols, r, c+1))
			}
			if r+1 < rows {
				g.AddEdge(GridIndex(rows, cols, r, c), GridIndex(rows, cols, r+1, c))
			}
		}
	}
	return g
}

// Torus returns the rows×cols torus (grid with wraparound); needs
// rows, cols ≥ 3 to stay simple.
func Torus(rows, cols int) *Graph {
	if rows < 3 || cols < 3 {
		panic(fmt.Sprintf("graph: torus needs rows, cols ≥ 3, got %d×%d", rows, cols))
	}
	g := New(rows * cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			g.AddEdge(GridIndex(rows, cols, r, c), GridIndex(rows, cols, r, (c+1)%cols))
			g.AddEdge(GridIndex(rows, cols, r, c), GridIndex(rows, cols, (r+1)%rows, c))
		}
	}
	return g
}

// BinaryTree returns the complete-ish binary tree on n nodes with root 0
// (heap indexing: children of i are 2i+1 and 2i+2).
func BinaryTree(n int) *Graph {
	return KAryTree(n, 2)
}

// KAryTree returns the k-ary tree on n nodes with root 0 (heap indexing).
func KAryTree(n, k int) *Graph {
	if k < 1 {
		panic(fmt.Sprintf("graph: k-ary tree needs k ≥ 1, got %d", k))
	}
	g := New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(i, (i-1)/k)
	}
	return g
}

// Caterpillar returns a caterpillar tree: a spine path of length spine with
// legs pendant legs attached to each spine node. n = spine*(1+legs).
func Caterpillar(spine, legs int) *Graph {
	n := spine * (1 + legs)
	g := New(n)
	for i := 0; i+1 < spine; i++ {
		g.AddEdge(i, i+1)
	}
	next := spine
	for i := 0; i < spine; i++ {
		for l := 0; l < legs; l++ {
			g.AddEdge(i, next)
			next++
		}
	}
	return g
}

// Lollipop returns a clique K_k joined to a path of length n-k; node k-1 is
// the junction.
func Lollipop(k, n int) *Graph {
	if k < 1 || n < k {
		panic(fmt.Sprintf("graph: lollipop needs 1 ≤ k ≤ n, got k=%d n=%d", k, n))
	}
	g := New(n)
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			g.AddEdge(i, j)
		}
	}
	for i := k - 1; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

// Hypercube returns the d-dimensional hypercube Q_d on 2^d nodes.
func Hypercube(d int) *Graph {
	if d < 0 || d > 24 {
		panic(fmt.Sprintf("graph: hypercube dimension %d out of range", d))
	}
	n := 1 << uint(d)
	g := New(n)
	for v := 0; v < n; v++ {
		for b := 0; b < d; b++ {
			w := v ^ (1 << uint(b))
			if v < w {
				g.AddEdge(v, w)
			}
		}
	}
	return g
}

// RandomTree returns a uniformly random labelled tree on n nodes derived
// from a random Prüfer-like attachment: node i attaches to a uniformly
// random earlier node. Deterministic in seed.
func RandomTree(n int, seed int64) *Graph {
	r := rand.New(rand.NewSource(seed))
	g := New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(i, r.Intn(i))
	}
	return g
}

// GNPConnected returns a connected Erdős–Rényi-style graph: a random tree
// (guaranteeing connectivity) plus each remaining pair independently with
// probability p. Deterministic in seed. At streamGNPThreshold nodes and
// above, construction switches to the O(m) streaming sampler that emits
// the CSR directly (see StreamGNPConnected) — same distribution and seed
// determinism, different random sequence — so million-node members of the
// gnp families are constructible without the quadratic pair loop.
//
// Below the threshold the graph is the one the plain loop builds: node j
// attaches to r.Intn(j), then every pair {i, j}, i < j, in order, but the
// tree's, is an edge if r.Float64() < p, with r = rand.New(rand.NewSource(seed)).
// The loop makes the same decisions without a call per pair. After the
// tree it reads the source's next 607 outputs into a ring and continues
// math/rand's lagged Fibonacci stream there, yₖ = yₖ₋₆₀₇ + yₖ₋₂₇₃ mod 2⁶⁴,
// and where Float64 would compare float64(y&(2⁶³−1))/2⁶³ with p it
// compares y&(2⁶³−1) with the integer thresholds that give the same
// answers, redrawing for the same pair where Float64 would round to 1.
// math/rand keeps its value stream unchanged, so the graphs are too;
// TestGNPMatchesOracle, which runs the plain loop, fails if it ever moves.
func GNPConnected(n int, p float64, seed int64) *Graph {
	if n >= streamGNPThreshold {
		return StreamGNPConnected(n, p, seed)
	}
	return gnpConnected(n, p, rand.NewSource(seed).(rand.Source64))
}

// The lags of math/rand's source: output k is the sum of outputs k−607
// and k−273.
const (
	rngLen = 607
	rngTap = 273
)

// gnpConnected is GNPConnected's construction on src, which must produce
// math/rand's stream: tests pass a stub that reaches Float64's redraw.
func gnpConnected(n int, p float64, src rand.Source64) *Graph {
	r := rand.New(src)
	// tree lists the tree edges by their index among all n(n−1)/2 pairs in
	// loop order, ascending: sorted by parent, then by child.
	parent := make([]int32, n)
	start := make([]int32, n+1)
	for j := 1; j < n; j++ {
		parent[j] = int32(r.Intn(j))
		start[parent[j]+1]++
	}
	for i := 1; i <= n; i++ {
		start[i] += start[i-1]
	}
	tree := make([]int64, max(n-1, 0))
	for j := 1; j < n; j++ {
		i := int(parent[j])
		tree[start[i]] = int64(i)*int64(2*n-i-1)/2 + int64(j-i-1) // rows 0..i−1 hold i(2n−i−1)/2 pairs
		start[i]++
	}

	// Float64 returns float64(v)/2⁶³ for v = y&(2⁶³−1), monotone in v. The
	// pair is an edge for v < accept; for v ≥ redraw Float64 rounds to 1
	// and draws again. Clamping keeps p > 1 from accepting those.
	redraw := firstFloat64(func(f float64) bool { return f == 1 })
	accept := min(firstFloat64(func(f float64) bool { return !(f < p) }), redraw)
	pairs := int64(n)*int64(n-1)/2 - int64(len(tree))
	expected := float64(pairs) * float64(accept) / (1 << 63)
	c := pairKeys{n: int64(n), tree: tree}
	c.keys = make([]int64, 0, len(tree)+int(expected+4*math.Sqrt(expected))+16)

	var ring [rngLen]uint64 // the next 607 outputs: draw d takes slot d mod 607
	for i := range ring {
		ring[i] = src.Uint64()
	}
	span := redraw - accept
	for q, slot := int64(0), 0; q < pairs; {
		// Slot i's successor is itself plus slot (i+334) mod 607: take the
		// slots up to where either index wraps.
		end, lag := rngLen, -rngTap
		if slot < rngTap {
			end, lag = rngTap, rngLen-rngTap
		}
		run := ring[slot:end][:min(int64(end-slot), pairs-q)]
		next := ring[slot+lag:][:len(run)]
		skipped := 0
		for k, y := range run {
			run[k] = y + next[k]
			if v := y & (1<<63 - 1); v-accept >= span { // v < accept or v ≥ redraw
				if v >= redraw {
					skipped++
					continue
				}
				c.edge(q + int64(k-skipped))
			}
		}
		q += int64(len(run) - skipped)
		if slot += len(run); slot == rngLen {
			slot = 0
		}
	}
	c.finish()
	return &Graph{n: n, buf: c.keys}
}

// firstFloat64 returns the least v in [0, 2⁶³) for which ok(float64(v)/2⁶³)
// holds, or 2⁶³ if none does; ok must be monotone.
func firstFloat64(ok func(f float64) bool) uint64 {
	lo, hi := uint64(0), uint64(1)<<63
	for lo < hi {
		mid := lo + (hi-lo)/2
		if ok(float64(int64(mid)) / (1 << 63)) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// pairKeys appends the edit-buffer keys of pairs {i, j}, i < j, given in
// ascending order by their index among all pairs in row order. For
// GNPConnected it also merges in the tree's edges, so its keys ascend.
type pairKeys struct {
	n    int64
	tree []int64 // the tree edges' indices among all pairs, ascending
	t    int     // the next tree edge to add
	keys []int64
	// The pair cursor: row i holds the pairs {i, j}, j > i, and the
	// pairs before it number base.
	i, base int64
}

// edge adds the q-th pair outside the tree, after the tree edges that
// precede it.
func (c *pairKeys) edge(q int64) {
	for c.t < len(c.tree) && c.tree[c.t] <= q+int64(c.t) {
		c.add(c.tree[c.t])
		c.t++
	}
	c.add(q + int64(c.t))
}

// finish adds the tree edges after the last drawn pair.
func (c *pairKeys) finish() {
	for ; c.t < len(c.tree); c.t++ {
		c.add(c.tree[c.t])
	}
}

// add appends the key of the pair with index k among all pairs.
func (c *pairKeys) add(k int64) {
	for k >= c.base+c.n-1-c.i {
		c.base += c.n - 1 - c.i
		c.i++
	}
	c.keys = append(c.keys, c.i*c.n+c.i+1+k-c.base)
}

// RandomRadius2 returns a random connected graph in which every node is at
// distance at most 2 from node 0: node 0's neighbours are a random nonempty
// subset, every other node attaches to ≥1 neighbour of 0, and extra edges
// are sprinkled with probability p. Used by the §5 one-bit experiments.
func RandomRadius2(n int, p float64, seed int64) *Graph {
	if n < 2 {
		return Path(n)
	}
	r := rand.New(rand.NewSource(seed))
	g := New(n)
	// First ring: at least one neighbour of the centre.
	ring := 1 + r.Intn(n-1)
	for i := 1; i <= ring; i++ {
		g.AddEdge(0, i)
	}
	// Second ring: attach to random first-ring nodes.
	for i := ring + 1; i < n; i++ {
		a := 1 + r.Intn(ring)
		g.AddEdge(i, a)
		// Extra attachments increase collision pressure. Node i's only
		// first-ring edge so far is {i, a}, so no draw is spent on it.
		for j := 1; j <= ring; j++ {
			if j != a && r.Float64() < p {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

// FamilyFunc builds the n-node member of a named family (see Families).
type FamilyFunc func(n int) *Graph

// Families maps family names to constructors used by the experiment sweep.
// Constructors accept a target size n and may round it (e.g. grids use the
// nearest square); callers should read the actual size from the result.
var Families = map[string]FamilyFunc{
	"path":     Path,
	"cycle":    func(n int) *Graph { return Cycle(max(3, n)) },
	"star":     Star,
	"complete": Complete,
	"wheel":    func(n int) *Graph { return Wheel(max(4, n)) },
	"grid":     func(n int) *Graph { s := isqrt(n); return Grid(s, s) },
	"torus":    func(n int) *Graph { s := max(3, isqrt(n)); return Torus(s, s) },
	"btree":    BinaryTree,
	"caterpillar": func(n int) *Graph {
		spine := max(1, n/4)
		return Caterpillar(spine, 3)
	},
	"lollipop":  func(n int) *Graph { return Lollipop(max(1, n/3), n) },
	"hypercube": func(n int) *Graph { return Hypercube(ilog2(max(1, n))) },
	"gnp-sparse": func(n int) *Graph {
		return GNPConnected(n, 2.0/float64(max(2, n)), int64(n))
	},
	"gnp-dense": func(n int) *Graph {
		return GNPConnected(n, 0.3, int64(n))
	},
	"seriesparallel": func(n int) *Graph { return SeriesParallel(n, int64(n)) },
}

// FamilyNames returns the sorted family names (deterministic sweep order).
func FamilyNames() []string {
	names := make([]string, 0, len(Families))
	for k := range Families {
		names = append(names, k)
	}
	sortStrings(names)
	return names
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func isqrt(n int) int {
	s := 0
	for (s+1)*(s+1) <= n {
		s++
	}
	return max(1, s)
}

func ilog2(n int) int {
	l := 0
	for (1 << uint(l+1)) <= n {
		l++
	}
	return l
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
