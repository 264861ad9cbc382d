package radio

import "radiobcast/internal/graph"

// Waker is an optional Protocol extension for schedule-driven protocols
// (B, Back, the slotted baselines, scripted schedules): it lets the engine
// skip the Step call for nodes that provably cannot act in a round.
//
// The engine guarantees a Step call in every round r in which the node
// heard a message in round r−1 (or, for a NoiseProtocol, detected noise),
// and in every round ≥ the round most recently returned by NextWake. It
// may skip Step in any other round; before the next real Step it reports
// the number of skipped rounds through Skip, so the protocol's internal
// round counter stays in sync. A skipped round must be externally
// identical to a Step that returned false: the engine's Results are
// then bit-identical to those of the reference engine in
// internal/radio/radiotest, which steps every node every round and
// ignores Waker (pinned by FuzzEngineMatchesOracle and the facade
// matrix tests).
type Waker interface {
	// NextWake returns the absolute 1-based round number of the next round
	// in which the protocol might transmit — or otherwise needs to observe
	// the passage of time — assuming it hears neither a message nor noise
	// in any intervening round. Returning NeverWake means
	// the protocol stays passive until its next reception. Returning a
	// round in 1..current is safe and simply disables skipping — but 0
	// is NeverWake, which suspends the node until its next reception;
	// implementations whose arithmetic can yield 0 must special-case it.
	NextWake() int
	// Skip informs the protocol that `rounds` rounds elapsed in which it
	// was not stepped. Implementations advance their internal round counter
	// by that amount, exactly as if Step had been called with nil and had
	// returned false each time.
	Skip(rounds int)
}

// NeverWake is returned by NextWake when the protocol has no scheduled
// future action: it will stay silent until it next hears something.
const NeverWake = 0

// Sim is a reusable simulation engine. It owns every per-run buffer —
// the word-packed channel and fault state of the bitset core (see
// bitsim.go), the per-node outgoing messages, and the flat transmit/receive
// accumulators — and resizes rather than reallocates them between runs,
// so driving many runs through one Sim (the label-once/run-many regime
// of the paper and the Sweep workloads) allocates only each run's
// Result: at most five allocations whatever the graph size, of 16 bytes
// per node plus 8 per transmission and 48 per reception.
//
// A Sim may be used for any sequence of runs over graphs of any sizes,
// but a single Sim must not run concurrently with itself. The zero value
// is ready to use. Run detaches the returned Result from the Sim's
// buffers: Results remain valid after later runs.
type Sim struct {
	n   int
	cur int // index of the "current" half of the double buffers

	protos []Protocol
	noise  []NoiseProtocol
	wakers []Waker

	// out[v] is the message v's protocol wrote in its last transmitting
	// step; it is read only for this round's transmitters (txList).
	out []Message

	// Double-buffered deliveries: msgs[cur][v] is what v heard in the
	// previous round, valid iff v's bit is set in bits.setsW[cur].
	msgs [2][]Message

	nextWake []int
	txList   []int32 // this round's transmitters, ascending

	collisions []int

	// Fault-injection state, live only when Options.Faults is set: the
	// monotone informed-set view models may consult (Heard in
	// faults.State). The clean path never touches it beyond the
	// s.faulted flag checks.
	faulted bool
	heard   []bool

	// Flat event logs, materialized into Result at the end of a run.
	txNodes  []int32
	txRounds []int32
	rxNodes  []int32
	rxRecs   []Reception

	maxBits int

	bits bitState
}

// NewSim returns an empty Sim ready for its first Run.
func NewSim() *Sim { return &Sim{} }

// grow returns buf with length n, reusing its backing array when large
// enough; the returned slice is zeroed either way.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

func (s *Sim) reset(n int, protos []Protocol) {
	s.n = n
	s.cur = 0
	s.protos = protos
	s.noise = grow(s.noise, n)
	s.wakers = grow(s.wakers, n)
	for v, p := range protos {
		if np, ok := p.(NoiseProtocol); ok {
			s.noise[v] = np
		}
		if w, ok := p.(Waker); ok {
			s.wakers[v] = w
		}
	}
	s.out = grow(s.out, n)
	for i := 0; i < 2; i++ {
		s.msgs[i] = grow(s.msgs[i], n)
	}
	s.nextWake = grow(s.nextWake, n)
	s.txList = s.txList[:0]
	s.collisions = grow(s.collisions, n)
	s.txNodes = s.txNodes[:0]
	s.txRounds = s.txRounds[:0]
	s.rxNodes = s.rxNodes[:0]
	s.rxRecs = s.rxRecs[:0]
	s.maxBits = 0
}

// Run executes the protocols on g under the radio model (see Run at
// package level for the semantics; this is the same engine with explicit
// buffer ownership).
func (s *Sim) Run(g *graph.Graph, protos []Protocol, opt Options) *Result {
	var lane bitLane
	lane.init(s, g, protos, opt)
	for !lane.done {
		lane.runRound(lane.rounds + 1)
	}
	return lane.finish()
}

// release drops every reference the buffers hold into caller objects
// (protocols, message payloads) once the run is over, so an idle Sim —
// pooled or caller-owned — does not keep the last network's protocol
// state and payload strings live. The int/bool buffers are kept as is;
// reset re-clears everything on the next run.
func (s *Sim) release() {
	s.protos = nil
	clear(s.noise)
	clear(s.wakers)
	clear(s.out)
	for i := 0; i < 2; i++ {
		clear(s.msgs[i])
	}
	clear(s.rxRecs)
}

func (s *Sim) logTransmit(v int32, round int) {
	s.txNodes = append(s.txNodes, v)
	s.txRounds = append(s.txRounds, int32(round))
	if b := s.out[v].BitLen(); b > s.maxBits {
		s.maxBits = b
	}
}

// dropWiped removes from the reception log, from entry mark on (the
// previous round's deliveries), every reception of a node whose wipe bit
// is set: its protocol never processes that reception, so it is no
// reception of the run. The Trace, recorded as the round ran, keeps it.
func (s *Sim) dropWiped(mark int, wipe []uint64) {
	keep := mark
	for i := mark; i < len(s.rxNodes); i++ {
		if v := s.rxNodes[i]; wipe[v>>6]&(1<<(uint(v)&63)) == 0 {
			s.rxNodes[keep], s.rxRecs[keep] = v, s.rxRecs[i]
			keep++
		}
	}
	s.rxNodes, s.rxRecs = s.rxNodes[:keep], s.rxRecs[:keep]
}

// materialize builds the caller-owned Result from the flat event logs.
func (s *Sim) materialize(rounds, total int, silentStopped bool) *Result {
	res := NewResult(s.n, s.txNodes, s.txRounds, s.rxNodes, s.rxRecs)
	copy(res.Collisions, s.collisions)
	res.Rounds = rounds
	res.TotalTransmissions = total
	res.MaxMessageBits = s.maxBits
	res.SilentStopped = silentStopped
	return res
}
