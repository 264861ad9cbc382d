// Package faults is the adversarial fault-injection subsystem of the
// radio engine: a composable Model interface that replaces the engine's
// old bare Drop hook, plus four concrete adversaries — budgeted jamming
// (greedy frontier-targeting and oblivious), crash–recovery with a
// heard-state policy, topology churn with incremental CSR re-freezes, and
// deterministic duty-cycling.
//
// The contract is engine-neutral: a model is a pure, seeded function of
// the run so far, so the same (model, seed) produces bit-identical
// results on the engine and on the test-only reference engine. The
// engine consults a model twice per round — once before the protocols
// step (where crash/sleep effects must land, so a down node's radio is
// off for the whole round) and once after the round's actions are decided
// (where transmission-level jamming lands, with the round's transmitter
// list in hand). Models carry per-run state (budgets, outage timers,
// churned topologies); Reset rewinds them, and a single model value must
// not be shared by concurrent runs.
package faults

import "radiobcast/internal/graph"

// Words is a round's fault effects in the engine's bit-packed form: bit
// v of word v/64 of a field is node v's bit. The engine sizes each field
// to ⌈n/64⌉ words and clears them at the start of every round; a model
// ORs its bits in, and bits set in the pre-step phase persist into the
// post-decision phase. Bits past n are ignored, so a model may fill
// whole words.
type Words struct {
	// Jam suppresses the node's transmission at the channel this round:
	// no neighbour hears it (nor counts it towards a collision), while
	// the node itself believes it transmitted.
	Jam []uint64
	// Down turns the node's radio off for the round: it neither transmits
	// nor hears (no delivery, no collision, no noise). Its protocol still
	// steps — the node's clock runs — so recovery needs no resync: the
	// first post-outage delivery re-wakes it through the engine's normal
	// sparse-wakeup path.
	Down []uint64
	// Wipe discards the node's pending (delivered but not yet processed)
	// reception before this round's step — the crash-with-memory-loss
	// policy. Meaningful only alongside Down at a crash round. The
	// engine also drops the wiped reception from the run's Result, so no
	// outcome counts it; the Trace keeps the channel delivery, and so
	// does State.Heard.
	Wipe []uint64
}

// SetJam sets node v's Jam bit.
func (w *Words) SetJam(v int) { w.Jam[v>>6] |= 1 << (uint(v) & 63) }

// SetDown sets node v's Down bit.
func (w *Words) SetDown(v int) { w.Down[v>>6] |= 1 << (uint(v) & 63) }

// SetWipe sets node v's Wipe bit.
func (w *Words) SetWipe(v int) { w.Wipe[v>>6] |= 1 << (uint(v) & 63) }

// State is the engine snapshot a Model may consult in Apply. All slices
// are owned by the engine and read-only for models.
type State struct {
	// Round is the current 1-based round.
	Round int
	// CSR is the topology in effect this round.
	CSR *graph.CSR
	// Heard[v] reports whether v has successfully received at least one
	// message so far — the adversary's view of the informed frontier. It
	// counts channel deliveries, a reception that a Wipe later discarded
	// included.
	Heard []bool
	// Transmitters lists the nodes whose decided action this round is
	// Transmit. It is nil in the pre-step call and set in the
	// post-decision call; models gate their two phases on it.
	Transmitters []int32
}

// Model is the engine-facing fault-injection contract. Apply is called
// twice per round: once before the protocols step (st.Transmitters ==
// nil) — crash/sleep effects (Down, Wipe) must be set here so they cover
// the whole round — and once after the round's actions are decided
// (st.Transmitters != nil) — transmission effects (Jam) may be added
// here. The words arrive cleared before the first call and persist
// between the two.
type Model interface {
	// Reset prepares the model for a fresh run over n nodes, rewinding
	// budgets, outage timers and any churned topology. Determinism
	// contract: after Reset, the same sequence of Apply calls with the
	// same States produces the same effects.
	Reset(n int)
	// Apply ORs this round's effect bits into w for every affected node
	// (see Model).
	Apply(st *State, w *Words)
}

// TopologyModel is an optional Model extension for adversaries that
// mutate the graph mid-run (churn). The engine calls Topology at the
// start of every round, before Apply; a non-nil return replaces the CSR
// for this and subsequent rounds, a nil return keeps the current one.
type TopologyModel interface {
	Model
	Topology(round int) *graph.CSR
}

// hash64 is the package's deterministic coordinate hash: splitmix64 over
// the packed (seed, a, b) triple — the same construction the facade's
// FaultRate uses, so every model's randomness is a pure function of its
// coordinates and no random-number state is shared across goroutines.
func hash64(seed int64, a, b int) uint64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(a)<<32 + uint64(b) + 1
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// threshold converts a probability into the fixed-point comparison bound
// for hash64 draws. p ≥ 1 saturates (every draw hits); p ≤ 0 yields 0
// (no draw hits) — callers reject NaN and negatives before this.
func threshold(p float64) uint64 {
	if p >= 1 {
		return ^uint64(0)
	}
	if p <= 0 {
		return 0
	}
	return uint64(p * (1 << 63) * 2)
}

// DropFunc turns an arbitrary predicate into a Model: node v's round-r
// transmission is jammed when f(v, r) is true. It expresses fault
// patterns no declarative model does, which is what the engine tests and
// the engine fuzz target drive it with. The adapter consults f only for
// actual transmitters, the only nodes a jam can affect.
func DropFunc(f func(node, round int) bool) Model {
	if f == nil {
		return nil
	}
	return dropFunc{f}
}

type dropFunc struct{ f func(node, round int) bool }

func (dropFunc) Reset(int) {}

func (d dropFunc) Apply(st *State, w *Words) {
	if st.Transmitters == nil {
		return
	}
	for _, t := range st.Transmitters {
		if d.f(int(t), st.Round) {
			w.SetJam(int(t))
		}
	}
}

// NewRate returns the i.i.d. per-transmission jamming model: each (node,
// round) transmission is independently jammed with probability rate,
// decided by a seeded coordinate hash — the historical FaultRate channel.
// rate ≥ 1 jams every transmission outright (no hash draw, so the
// boundary cannot leak a lucky maximal hash); callers reject NaN and
// negative rates before construction.
func NewRate(rate float64, seed int64) Model {
	return &rateModel{seed: seed, bound: threshold(rate), always: rate >= 1}
}

type rateModel struct {
	seed   int64
	bound  uint64
	always bool
}

func (*rateModel) Reset(int) {}

func (r *rateModel) Apply(st *State, w *Words) {
	if st.Transmitters == nil {
		return
	}
	for _, t := range st.Transmitters {
		if r.always || hash64(r.seed, int(t), st.Round) < r.bound {
			w.SetJam(int(t))
		}
	}
}

// Compose runs several models as one: effects are the union (each model
// sees the bits its predecessors already set), and the last composed
// TopologyModel wins the round's topology. Nil members are skipped.
func Compose(models ...Model) Model {
	var ms []Model
	for _, m := range models {
		if m != nil {
			ms = append(ms, m)
		}
	}
	switch len(ms) {
	case 0:
		return nil
	case 1:
		return ms[0]
	}
	return &composite{models: ms}
}

type composite struct{ models []Model }

func (c *composite) Reset(n int) {
	for _, m := range c.models {
		m.Reset(n)
	}
}

func (c *composite) Apply(st *State, w *Words) {
	for _, m := range c.models {
		m.Apply(st, w)
	}
}

func (c *composite) Topology(round int) *graph.CSR {
	var csr *graph.CSR
	for _, m := range c.models {
		if tm, ok := m.(TopologyModel); ok {
			if t := tm.Topology(round); t != nil {
				csr = t
			}
		}
	}
	return csr
}
