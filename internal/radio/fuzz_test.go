package radio_test

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"radiobcast/internal/faults"
	"radiobcast/internal/graph"
	"radiobcast/internal/radio"
	"radiobcast/internal/radio/radiotest"
)

// engineCase is one decoded fuzz input: a connected graph, the seed of a
// mixed protocol population, an optional fault model and the run options.
//
// Encoding: byte 0 sets n = 1 + b%48; byte 1 seeds the population (and
// picks the NoiseProtocol node); byte 2 selects the fault model and byte
// 3 parameterizes it; byte 4 holds the flags (bit 0 Trace, bit 1
// StopAfterSilent, the rest MaxRounds). The remaining bytes are edge
// pairs; components left over are chained together, so every input
// decodes to a connected graph and every connected graph has an encoding.
type engineCase struct {
	g         *graph.Graph
	seed      int64
	noise     int // the node running the NoiseProtocol
	fault     byte
	param     byte
	trace     bool
	silent    int
	maxRounds int
}

func decodeEngineCase(data []byte) engineCase {
	var hdr [5]byte
	copy(hdr[:], data)
	n := 1 + int(hdr[0])%48
	g := graph.New(n)
	for i := len(hdr); i+1 < len(data); i += 2 {
		if u, v := int(data[i])%n, int(data[i+1])%n; u != v {
			g.AddEdge(u, v)
		}
	}
	radiotest.Connect(g)
	c := engineCase{
		g:         g,
		seed:      int64(hdr[1]),
		noise:     int(hdr[1]) % n,
		fault:     hdr[2] % 9,
		param:     hdr[3],
		trace:     hdr[4]&1 != 0,
		maxRounds: 8 + int(hdr[4]>>2),
	}
	if hdr[4]&2 != 0 {
		c.silent = 3
	}
	return c
}

// encodeEngineCase is the inverse of decodeEngineCase for a connected g
// with at most 48 nodes; it seeds the corpus.
func encodeEngineCase(g *graph.Graph, seed, fault, param, flags byte) []byte {
	data := []byte{byte(g.N() - 1), seed, fault, param, flags}
	for _, e := range g.Edges() {
		data = append(data, byte(e[0]), byte(e[1]))
	}
	return data
}

// model builds a fresh instance of the case's fault model (models are
// stateful, so every run gets its own). Selectors cover each model of
// internal/faults, a radio.DropFunc predicate, and two compositions, one of
// them with the budgeted jammer.
func (c engineCase) model() faults.Model {
	p := int(c.param)
	rate := func() faults.Model { return faults.NewRate(float64(p%8)/8, c.seed) }
	jam := func() faults.Model {
		return faults.NewJam(faults.JamConfig{Budget: 1 + p%16, PerRound: p % 3, Greedy: p&1 == 0, Seed: c.seed})
	}
	crash := func() faults.Model {
		return faults.NewCrash(faults.CrashConfig{Rate: 0.02 + float64(p%8)/40, Down: 1 + p%4, Lose: p&1 == 1, Seed: c.seed})
	}
	duty := func() faults.Model {
		return faults.NewDutyCycle(faults.DutyConfig{Period: 2 + p%5, On: 1 + p%3, Seed: int64(p % 2)})
	}
	churn := func() faults.Model {
		r := rand.New(rand.NewSource(c.seed + int64(p)))
		n := c.g.N()
		events := make([]faults.ChurnEvent, 1+r.Intn(6))
		for i := range events {
			events[i] = faults.ChurnEvent{Round: 1 + r.Intn(30), Add: r.Intn(2) == 0, U: r.Intn(n), V: r.Intn(n)}
		}
		return faults.NewChurn(c.g, events)
	}
	switch c.fault {
	case 1:
		return rate()
	case 2:
		return jam()
	case 3:
		return crash()
	case 4:
		return duty()
	case 5:
		return churn()
	case 6:
		return radio.DropFunc(func(node, round int) bool { return (node+round+p)%4 == 0 })
	case 7:
		return faults.Compose(rate(), crash(), churn())
	case 8:
		return faults.Compose(jam(), duty(), churn())
	}
	return nil
}

// run builds fresh protocols and options for one execution of the case:
// the mixed population of randomProtocols with one NoiseProtocol node.
func (c engineCase) run() ([]radio.Protocol, radio.Options) {
	ps := randomProtocols(c.g.N(), c.seed)
	ps[c.noise] = &noiseEcho{}
	opt := radio.Options{MaxRounds: c.maxRounds, StopAfterSilent: c.silent, Faults: c.model()}
	if c.trace {
		opt.Trace = &radio.Trace{}
	}
	return ps, opt
}

// FuzzEngineMatchesOracle drives each decoded input through a reused
// Sim and through pooled Run, and requires Result and Trace deep-equal
// to the reference engine's.
func FuzzEngineMatchesOracle(f *testing.F) {
	graphs := testGraphs(f)
	for _, name := range slices.Sorted(maps.Keys(graphs)) { // stable seed#N numbering
		g := graphs[name]
		for fault := byte(0); fault < 9; fault++ {
			// The flag bits cycle Trace × StopAfterSilent, and the model
			// parameter's parity with them (crash Lose, greedy jam,
			// staggered duty phases).
			for bits := byte(0); bits < 4; bits++ {
				f.Add(encodeEngineCase(g, 7*fault+bits, fault, 3*fault+bits, (60-8)<<2|bits))
			}
		}
	}
	sim := radio.NewSim()
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeEngineCase(data)
		ps, opt := c.run()
		want := radiotest.Run(c.g, ps, opt)

		ps, got := c.run()
		if res := sim.Run(c.g, ps, got); !sameRun(want, res, opt.Trace, got.Trace) {
			t.Fatalf("reused Sim diverged from the reference engine")
		}
		ps, got = c.run()
		if res := radio.Run(c.g, ps, got); !sameRun(want, res, opt.Trace, got.Trace) {
			t.Fatalf("pooled Run diverged from the reference engine")
		}
	})
}
