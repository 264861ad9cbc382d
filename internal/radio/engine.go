package radio

import (
	"context"
	"sync"

	"radiobcast/internal/faults"
	"radiobcast/internal/graph"
)

// Options configures an engine run.
type Options struct {
	// MaxRounds bounds the execution; the run stops after this many rounds
	// even if traffic continues. Required (> 0).
	MaxRounds int

	// Ctx, when non-nil, makes the run cancellable: it is checked between
	// rounds, and once the context is done the run stops before starting
	// the next round. The Result then carries everything observed so far
	// with Interrupted set — cancellation yields partial data, never a
	// corrupt engine. A nil Ctx (the default) is never checked, so
	// non-cancellable runs pay nothing.
	Ctx context.Context

	// StopAfterSilent, when > 0, stops the run once this many consecutive
	// rounds had no transmissions. Algorithms whose every transmission is
	// triggered by a reception at most two rounds earlier (B, Back) are
	// permanently silent after 3 quiet rounds; Barb's source waits T rounds
	// mid-run, so Barb runs must disable this or use a large value.
	StopAfterSilent int

	// Stop, when non-nil, is evaluated after each round; returning true
	// ends the run. Use it to stop once an externally observable condition
	// holds (e.g. the source's ack was delivered).
	Stop func(round int) bool

	// Trace, when non-nil, records every round's transmissions and
	// deliveries (used for Figure 1 rendering and debugging).
	Trace *Trace

	// Faults, when non-nil, injects faults through the composable model
	// interface of internal/faults: jamming, crash–recovery, topology
	// churn, duty-cycling, or any composition. The model is Reset at the
	// start of the run and consulted twice per round (see faults.Model).
	// Models are stateful: a model value must not be shared by runs that
	// may execute concurrently.
	Faults faults.Model

	// Sim, when non-nil, is the reusable engine to run on: callers in a
	// label-once/run-many loop pass the same Sim every time and amortise
	// all per-run buffers. When nil, Run borrows a Sim from an internal
	// pool. See Sim.
	Sim *Sim

	// Engine, when non-nil, executes the run in place of the package's
	// engine: Run hands the run to it unchanged. It is the
	// per-run test seam through which differential tests substitute the
	// reference engine of internal/radio/radiotest.
	Engine func(g *graph.Graph, protos []Protocol, opt Options) *Result
}

// Reception records one successful message delivery.
type Reception struct {
	Round int
	Msg   Message
}

// Result aggregates everything observable about a run. Its per-node
// views are carved out of two flat arrays, the way graph.CSR stores
// rows: every transmit round in one, every reception in the other, both
// indexed by one offsets array. Transmits(v) and Receives(v) return
// views into them; NewResult builds them.
type Result struct {
	// Rounds is the number of rounds executed.
	Rounds int
	// Collisions[v] counts rounds in which v listened while ≥ 2 neighbours
	// transmitted.
	Collisions []int
	// TotalTransmissions counts all transmissions across nodes and rounds.
	TotalTransmissions int
	// MaxMessageBits is the largest BitLen over all transmitted messages.
	MaxMessageBits int
	// SilentStopped reports whether the run ended via StopAfterSilent.
	SilentStopped bool
	// Interrupted reports that the run was cut short by Options.Ctx: the
	// result is a valid prefix of the full execution, not its entirety.
	Interrupted bool

	// Node v's transmit rounds are tx[txOff[v]:txOff[v+1]] and its
	// receptions rx[rxOff[v]:rxOff[v+1]]; txOff and rxOff are the two
	// halves of one offsets array.
	txOff, rxOff []int32
	tx           []int
	rx           []Reception
}

// NewResult returns the Result of a run over n nodes with the given
// round-ordered event logs, one entry per event: node txNodes[i]
// transmitted in round txRounds[i], and node rxNodes[i] made reception
// rx[i]. Each node's views keep its events in log order. Collisions is
// zeroed and the run-level fields are left to the caller. The Result
// shares no memory with the logs.
func NewResult(n int, txNodes, txRounds, rxNodes []int32, rx []Reception) *Result {
	off := make([]int32, 2*(n+1))
	res := &Result{
		Collisions: make([]int, n),
		txOff:      off[:n+1],
		rxOff:      off[n+1:],
		tx:         make([]int, len(txNodes)),
		rx:         make([]Reception, len(rxNodes)),
	}
	// A counting sort by node: each offsets half first holds the group
	// starts and serves as the fill cursor, which leaves entry v at the
	// end of v's group; shifting the half up one place makes the ends
	// offsets again.
	groupStarts(res.txOff, txNodes)
	for i, v := range txNodes {
		res.tx[res.txOff[v]] = int(txRounds[i])
		res.txOff[v]++
	}
	groupStarts(res.rxOff, rxNodes)
	for i, v := range rxNodes {
		res.rx[res.rxOff[v]] = rx[i]
		res.rxOff[v]++
	}
	copy(res.txOff[1:], res.txOff)
	copy(res.rxOff[1:], res.rxOff)
	res.txOff[0], res.rxOff[0] = 0, 0
	return res
}

// groupStarts sets off[v], for each v < len(off), to the number of
// entries of nodes below v: the start of v's group once they are grouped
// by node. off must be zero on entry.
func groupStarts(off, nodes []int32) {
	for _, v := range nodes {
		off[v+1]++
	}
	for v := 1; v < len(off); v++ {
		off[v] += off[v-1]
	}
}

// N returns the number of nodes of the run.
func (r *Result) N() int { return len(r.Collisions) }

// Transmits returns the rounds in which node v transmitted, ascending.
// The slice is a view into the Result.
func (r *Result) Transmits(v int) []int {
	return r.tx[r.txOff[v]:r.txOff[v+1]:r.txOff[v+1]]
}

// Receives returns node v's successful receptions in round order:
// exactly the receptions v's protocol processed, plus any in the run's
// last round. A reception a fault wiped before v stepped on it
// (faults.Words.Wipe) is no reception and is not listed; the Trace keeps
// the channel delivery. The slice is a view into the Result.
func (r *Result) Receives(v int) []Reception {
	return r.rx[r.rxOff[v]:r.rxOff[v+1]:r.rxOff[v+1]]
}

// NoReception is the sentinel returned by FirstReception for a node that
// never received a matching message. Engine rounds are 1-based — every
// real reception happens in a round ≥ 1 — so the zero value is
// unambiguous.
const NoReception = 0

// FirstReception returns the 1-based round in which node v first
// successfully received a message of the given kind, or NoReception if it
// never did.
func (r *Result) FirstReception(v int, kind Kind) int {
	for _, rec := range r.Receives(v) {
		if rec.Msg.Kind == kind {
			return rec.Round
		}
	}
	return NoReception
}

// MaxTransmissionsPerNode returns the largest per-node transmission count
// (an energy metric).
func (r *Result) MaxTransmissionsPerNode() int {
	m := 0
	for v := range r.N() {
		m = max(m, int(r.txOff[v+1]-r.txOff[v]))
	}
	return m
}

var simPool = sync.Pool{New: func() any { return new(Sim) }}

// Run executes the protocols on g under the radio model and returns the
// observed result. protos[v] is node v's state machine; len(protos) must
// equal g.N(). Each Protocol must be a fresh instance: Run drives it from
// round 1.
//
// Run borrows a reusable Sim from an internal pool unless opt.Sim is set;
// the returned Result is always detached and stays valid indefinitely.
func Run(g *graph.Graph, protos []Protocol, opt Options) *Result {
	if opt.Engine != nil {
		return opt.Engine(g, protos, opt)
	}
	if opt.Sim != nil {
		return opt.Sim.Run(g, protos, opt)
	}
	s := simPool.Get().(*Sim)
	defer simPool.Put(s)
	return s.Run(g, protos, opt)
}
