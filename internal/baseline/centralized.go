package baseline

import (
	"radiobcast/internal/graph"
	"radiobcast/internal/nodeset"
	"radiobcast/internal/radio"
)

// Centralized broadcast assumes a controller that knows the whole topology
// and hands every node its personal transmission schedule (the setting of
// the "known topology" literature the paper cites, e.g. Gaber–Mansour and
// Kowalski–Pelc). We implement a greedy scheduler: it repeatedly picks a
// conflict-free set of informed transmitters that each deliver to at least
// one new node, preferring transmitters covering many uninformed targets.
// The resulting schedule is collision-free at every newly-covered node by
// construction. This is a reference point for completion time, not a
// labeling scheme: per-node schedules are Θ(T) bits, not constant.

// BuildSchedule computes per-round transmitter sets for broadcasting from
// source on g. schedule[r-1] lists the transmitters of round r.
func BuildSchedule(g *graph.Graph, source int) [][]int {
	n := g.N()
	csr := g.Freeze()
	informed := nodeset.Of(n, source)
	var schedule [][]int
	for informed.Count() < n {
		round := scheduleOneRound(csr, informed)
		if len(round) == 0 {
			panic("baseline: centralized scheduler stalled (disconnected graph?)")
		}
		schedule = append(schedule, round)
		// Apply the round: a listener is informed iff exactly one
		// transmitting neighbour.
		tx := nodeset.New(n)
		for _, v := range round {
			tx.Add(v)
		}
		for v := 0; v < n; v++ {
			if informed.Has(v) || tx.Has(v) {
				continue
			}
			count := 0
			for _, w := range csr.Neighbors(v) {
				if tx.Has(int(w)) {
					count++
				}
			}
			if count == 1 {
				informed.Add(v)
			}
		}
	}
	return schedule
}

// scheduleOneRound greedily picks transmitters: candidates are informed
// nodes with uninformed neighbours, in decreasing coverage order; a
// candidate joins if it strictly grows the set of listeners that hear
// exactly one transmitter.
func scheduleOneRound(csr *graph.CSR, informed *nodeset.Set) []int {
	n := csr.N()
	type cand struct {
		v    int
		gain int
	}
	var cands []cand
	informed.ForEach(func(v int) {
		gain := 0
		for _, w := range csr.Neighbors(v) {
			if !informed.Has(int(w)) {
				gain++
			}
		}
		if gain > 0 {
			cands = append(cands, cand{v, gain})
		}
	})
	// Sort by gain descending, index ascending (deterministic).
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && (cands[j].gain > cands[j-1].gain ||
			(cands[j].gain == cands[j-1].gain && cands[j].v < cands[j-1].v)); j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	// hits[w] = number of chosen transmitters adjacent to uninformed w.
	hits := make([]int, n)
	var chosen []int
	for _, c := range cands {
		// Would adding c create at least one newly exactly-one-covered
		// node without destroying more coverage than it adds?
		delta := 0
		for _, w := range csr.Neighbors(c.v) {
			if informed.Has(int(w)) {
				continue
			}
			switch hits[w] {
			case 0:
				delta++ // becomes exactly-one
			case 1:
				delta-- // collision: loses coverage
			}
		}
		if delta > 0 {
			chosen = append(chosen, c.v)
			for _, w := range csr.Neighbors(c.v) {
				if !informed.Has(int(w)) {
					hits[w]++
				}
			}
		}
	}
	return chosen
}

// ScheduledProtocols turns a per-round transmitter schedule into
// Scripted protocols (one per node) carrying message mu. Per-node round
// lists are carved out of one arena, so scripting a whole network costs a
// constant number of allocations.
func ScheduledProtocols(n int, schedule [][]int, mu string) []radio.Protocol {
	msg := radio.Message{Kind: radio.KindData, Payload: mu}
	counts := make([]int, n)
	total := 0
	for _, txs := range schedule {
		for _, v := range txs {
			counts[v]++
			total++
		}
	}
	roundsArena := make([]int, total)
	msgsArena := make([]radio.Message, total)
	for i := range msgsArena {
		msgsArena[i] = msg
	}
	perNode := make([][]int, n)
	off := 0
	for v := 0; v < n; v++ {
		perNode[v] = roundsArena[off : off : off+counts[v]]
		off += counts[v]
	}
	for r, txs := range schedule {
		for _, v := range txs {
			perNode[v] = append(perNode[v], r+1)
		}
	}
	scripts := make([]radio.Scripted, n)
	ps := make([]radio.Protocol, n)
	off = 0
	for v := 0; v < n; v++ {
		scripts[v] = radio.CompiledScript(perNode[v], msgsArena[off:off+counts[v]])
		off += counts[v]
		ps[v] = &scripts[v]
	}
	return ps
}
