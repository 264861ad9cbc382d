package radiobcast_test

import (
	"errors"
	"math/rand"
	"testing"

	"radiobcast"
	"radiobcast/internal/graph"
)

// FuzzSchemes is the registry's property fuzz: on a small random connected
// graph (2 ≤ n ≤ 12) and source, every registered scheme labels, runs and
// passes Verify. Only the searched schemes may find no labeling, and only
// flooding, which is not universal, may fail Verify. EXPERIMENTS.md runs
// none of flooding's, onebit's or gjp's plans, so beyond TestSchemeMatrix
// this is their end-to-end check.
func FuzzSchemes(f *testing.F) {
	f.Add(uint8(4), uint8(0), int64(1), uint8(0))
	f.Add(uint8(12), uint8(5), int64(7), uint8(90))
	f.Add(uint8(9), uint8(8), int64(3), uint8(255))
	f.Add(uint8(2), uint8(1), int64(0), uint8(128))
	f.Fuzz(func(t *testing.T, size, src uint8, seed int64, density uint8) {
		n := 2 + int(size)%11
		r := rand.New(rand.NewSource(seed))
		g := graph.New(n)
		for v := 1; v < n; v++ {
			g.AddEdge(v, r.Intn(v)) // a random spanning tree keeps g connected
		}
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Intn(256) < int(density)/2 {
					g.AddEdge(u, v)
				}
			}
		}
		net := radiobcast.NewNetwork(g).At(int(src) % n)
		for _, scheme := range radiobcast.SchemeNames() {
			out, err := radiobcast.Run(net, scheme, radiobcast.WithMessage("m"))
			if errors.Is(err, radiobcast.ErrNoLabeling) && (scheme == "gjp" || scheme == "onebit") {
				continue
			}
			if err != nil {
				t.Fatalf("%s on %v from %d: %v", scheme, g, net.Source, err)
			}
			if err := radiobcast.Verify(out); err != nil {
				if scheme != "flooding" {
					t.Fatalf("%s on %v from %d: %v", scheme, g, net.Source, err)
				}
				continue
			}
			if !out.AllInformed || out.Coverage != 1 {
				t.Fatalf("%s on %v from %d: verified outcome informs %.2f of the nodes", scheme, g, net.Source, out.Coverage)
			}
		}
	})
}
