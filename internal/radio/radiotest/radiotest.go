// Package radiotest is the reference engine the radio package's engine
// is differentially tested against. It implements the model of the
// paper (§1.1) in the most direct way there is: every round, every node
// is stepped, and each listener scans its neighbours to learn whether
// exactly one of them transmitted. It ignores Waker hints, keeps no
// bitsets and no per-run buffers, and shares with radio only types and
// radio.NewResult, which turns its round-ordered events into a Result
// and has a unit test of its own, so a defect in the engine's fast paths
// cannot hide behind the same defect here.
//
// Run has the signature of radio.Options.Engine: tests install it
// there (or through the facade's test-only engine option) to run a
// whole scheme on the reference engine. Script builds the scripted
// transmitters the tests drive the engines with, and Connect joins the
// components of a graph a fuzz target decoded.
package radiotest

import (
	"fmt"
	"slices"

	"radiobcast/internal/faults"
	"radiobcast/internal/graph"
	"radiobcast/internal/radio"
)

// Run executes the protocols on g round by round and returns what the
// radio package's Run returns for the same inputs: the same Result and
// the same fault-model calls. opt.Sim and opt.Engine are ignored.
func Run(g *graph.Graph, protos []radio.Protocol, opt radio.Options) *radio.Result {
	n := g.N()
	if len(protos) != n {
		panic(fmt.Sprintf("radiotest: %d protocols for %d nodes", len(protos), n))
	}
	if opt.MaxRounds <= 0 {
		panic("radiotest: Options.MaxRounds must be positive")
	}
	csr := g.Freeze()
	// The run's events in round order, from which radio.NewResult builds
	// the Result, and its run-level fields.
	var txNodes, txRounds, rxNodes, wipedNodes []int32
	var txMsgs []radio.Message
	var rx, wiped []radio.Reception
	collisions := make([]int, n)
	var rounds, total, maxBits int
	var silentStopped, interrupted bool

	// heard[v]/msg[v]/rec[v]: v received msg[v] last round, reception
	// rec[v]; busy[v]: at least one neighbour's transmission reached v
	// last round.
	heard := make([]bool, n)
	busy := make([]bool, n)
	msg := make([]radio.Message, n)
	rec := make([]radio.Reception, n)
	// transmit[v]/out[v]: v's transmission this round, with the message
	// its protocol wrote.
	transmit := make([]bool, n)
	out := make([]radio.Message, n)

	// fx holds the round's fault effects; has reads node v's bit of one
	// of its fields.
	fm := opt.Faults
	var fx faults.Words
	var informed []bool
	var topo faults.TopologyModel
	if fm != nil {
		fm.Reset(n)
		k := (n + 63) / 64
		fx = faults.Words{Jam: make([]uint64, k), Down: make([]uint64, k), Wipe: make([]uint64, k)}
		informed = make([]bool, n)
		topo, _ = fm.(faults.TopologyModel)
	}
	has := func(bits []uint64, v int) bool { return fm != nil && bits[v>>6]&(1<<(uint(v)&63)) != 0 }

	silent := 0
	for round := 1; round <= opt.MaxRounds; round++ {
		if opt.Ctx != nil && opt.Ctx.Err() != nil {
			interrupted = true
			break
		}
		var st faults.State
		if fm != nil {
			if topo != nil {
				if t := topo.Topology(round); t != nil {
					csr = t
				}
			}
			clear(fx.Jam)
			clear(fx.Down)
			clear(fx.Wipe)
			st = faults.State{Round: round, CSR: csr, Heard: informed}
			fm.Apply(&st, &fx)
			for v := 0; v < n; v++ {
				if !has(fx.Wipe, v) {
					continue
				}
				if heard[v] {
					// The wiped reception is last round's, v's last logged:
					// the protocol never processes it, so the Result moves
					// it to the wiped deliveries.
					i := len(rxNodes) - 1
					for rxNodes[i] != int32(v) {
						i--
					}
					rxNodes, rx = slices.Delete(rxNodes, i, i+1), slices.Delete(rx, i, i+1)
					wipedNodes, wiped = append(wipedNodes, int32(v)), append(wiped, rec[v])
				}
				heard[v], busy[v] = false, false
			}
		}

		// Every node steps, in node order, on what it heard last round.
		tx := []int32{}
		for v, p := range protos {
			var rcv *radio.Message
			if heard[v] {
				m := msg[v]
				rcv = &m
			}
			var sends bool
			if np, ok := p.(radio.NoiseProtocol); ok {
				sends = np.StepNoise(rcv, busy[v], &out[v])
			} else {
				sends = p.Step(rcv, &out[v])
			}
			// A radio-off node's clock ran, but nothing is sent.
			transmit[v] = sends && !has(fx.Down, v)
			if transmit[v] {
				tx = append(tx, int32(v))
			}
		}
		if fm != nil {
			st.Transmitters = tx
			fm.Apply(&st, &fx)
		}

		// A listener whose radio is on hears a message iff exactly one
		// neighbour's transmission reached the channel (was not jammed).
		for _, v := range tx {
			txNodes, txRounds = append(txNodes, v), append(txRounds, int32(round))
			txMsgs = append(txMsgs, out[v])
			maxBits = max(maxBits, out[v].BitLen())
		}
		for v := 0; v < n; v++ {
			heard[v], busy[v] = false, false
			if transmit[v] || has(fx.Down, v) {
				continue
			}
			count, sender := 0, -1
			for _, w := range csr.Neighbors(v) {
				if transmit[w] && !has(fx.Jam, int(w)) {
					count++
					sender = int(w)
				}
			}
			busy[v] = count > 0
			switch {
			case count == 1:
				heard[v], msg[v] = true, out[sender]
				rec[v] = radio.Reception{Round: int32(round), From: int32(sender)}
				rxNodes, rx = append(rxNodes, int32(v)), append(rx, rec[v])
			case count > 1:
				collisions[v]++
			}
		}
		if fm != nil {
			for v := range heard {
				if heard[v] || transmit[v] {
					informed[v] = true
				}
			}
		}

		rounds = round
		total += len(tx)
		if len(tx) == 0 {
			silent++
		} else {
			silent = 0
		}
		if round == opt.MaxRounds {
			break // the bound ends the run; no stop condition is consulted
		}
		if opt.Stop != nil && opt.Stop(round) {
			break
		}
		if opt.StopAfterSilent > 0 && silent >= opt.StopAfterSilent {
			silentStopped = true
			break
		}
	}
	res := radio.NewResult(n, txNodes, txRounds, txMsgs, rxNodes, rx, wipedNodes, wiped)
	copy(res.Collisions, collisions)
	res.Rounds, res.TotalTransmissions, res.MaxMessageBits = rounds, total, maxBits
	res.SilentStopped, res.Interrupted = silentStopped, interrupted
	return res
}

// Script returns a protocol transmitting msg in each of the given rounds,
// which must be ascending.
func Script(msg radio.Message, rounds ...int) *radio.Scripted {
	msgs := make([]radio.Message, len(rounds))
	for i := range msgs {
		msgs[i] = msg
	}
	s := radio.CompiledScript(rounds, msgs)
	return &s
}

// Connect joins each component of g's smallest node to the smallest
// node of the component before it, so that a graph the fuzz targets
// decode from arbitrary bytes is connected.
func Connect(g *graph.Graph) {
	for v, last, dist := 1, 0, g.BFS(0); v < g.N(); v++ {
		if dist[v] == -1 {
			g.AddEdge(last, v)
			last, dist = v, g.BFS(0)
		}
	}
}
