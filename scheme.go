package radiobcast

import (
	"slices"

	"radiobcast/internal/baseline"
	"radiobcast/internal/core"
	"radiobcast/internal/graph"
	"radiobcast/internal/radio"
)

// Re-exported leaf types, so consumers of the facade never need to reach
// into internal packages.
type (
	// Graph is an undirected radio network topology.
	Graph = graph.Graph
	// Label is a binary-string node label (the paper's x1x2x3 bits),
	// packed into a 4-byte value; the zero value is the empty label.
	Label = core.Label
	// Protocol is a per-node deterministic state machine driven by the
	// synchronous radio engine.
	Protocol = radio.Protocol
	// Message is what a node transmits in a round.
	Message = radio.Message
	// Result aggregates everything observable about an engine run.
	Result = radio.Result
	// Trace is a run round by round, a view of its Result (see
	// Result.Trace).
	Trace = radio.Trace
	// Sim is a reusable simulation engine owning all per-run buffers (see
	// NewSim and WithSim).
	Sim = radio.Sim
)

// ParseLabel returns the label spelled by s, which must consist solely of
// '0' and '1' and be at most 31 bits long. Label.String is its inverse.
func ParseLabel(s string) (Label, error) { return core.ParseLabel(s) }

// MustParseLabel is ParseLabel for labels known to be valid, such as
// literals; it panics on an invalid one.
func MustParseLabel(s string) Label { return core.MustParseLabel(s) }

// NoReception is the sentinel Result.FirstReception returns for a node
// that never received a matching message. Engine rounds are 1-based, so
// the zero value cannot be confused with a real reception round.
const NoReception = radio.NoReception

// NewSim returns a reusable simulation engine. Passing it to consecutive
// runs via WithSim keeps every engine buffer across runs, so that in the
// steady state of a label-once/run-many loop the engine allocates only
// the run's Result: 16 bytes per node plus 48 per transmission and 8 per
// reception, in at most five allocations (two more when a fault wiped
// deliveries). A Sim must not be shared by
// concurrent runs; the Sweep subsystem gives each worker its own.
func NewSim() *Sim { return radio.NewSim() }

// Labeling is the output of a Scheme's labeling phase: the per-node labels
// plus whatever scheme-specific structure the run phase needs. It plays
// the paper's "central monitor" role: compute it once, then run any number
// of broadcasts over it (λarb labelings even allow changing the source).
type Labeling struct {
	// Scheme is the registry name of the scheme that produced this
	// labeling (RunLabeled uses it to find the matching run logic).
	Scheme string
	// Graph is the labeled topology.
	Graph *Graph
	// Source is the anchor the labels were computed for (Scheme.Anchor):
	// the source, barb's coordinator r, or 0 for the schemes whose labels
	// depend on no node. RunLabeled runs from it unless told otherwise.
	Source int
	// Labels holds one label per node (nil for the unlabeled centralized
	// baseline).
	Labels []Label
	// Stages is the §2.1 stage construction (λ-family schemes only).
	Stages *core.Stages
	// Delays are the flooding delays selected by 1-bit labels (schemes
	// "onebit" and "flooding").
	Delays baseline.FloodingDelays
	// Schedule is the centralized baseline's per-round transmitter plan.
	Schedule [][]int
}

// Bits returns the length of the labeling: the maximum label length in
// bits (§1.1 of the paper).
func (l *Labeling) Bits() int { return core.MaxLen(l.Labels) }

// Distinct returns the number of distinct label values.
func (l *Labeling) Distinct() int { return core.Distinct(l.Labels) }

// Strings renders the labels as binary strings, one per node.
func (l *Labeling) Strings() []string { return core.Strings(l.Labels) }

// Histogram counts nodes per label value.
func (l *Labeling) Histogram() map[Label]int { return core.Histogram(l.Labels) }

// Z returns λack's acknowledgement initiator z, read from the labels: the
// node with x3 = 1 (§3.1), for "barb" the one other than r. It is −1 for
// the other schemes, or when no node qualifies.
func (l *Labeling) Z() int {
	if l.Scheme != "back" && l.Scheme != "barb" {
		return -1
	}
	r := l.R()
	for v, lab := range l.Labels {
		if lab.X3() && v != r {
			return v
		}
	}
	return -1
}

// R returns λarb's coordinator r, read from the labels: the node labeled
// 111 (§4.1) in a "barb" labeling, else −1.
func (l *Labeling) R() int {
	if l.Scheme != "barb" {
		return -1
	}
	return slices.Index(l.Labels, core.CoordinatorLabel)
}

// Outcome is the unified result of running any registered scheme, and
// the one record of the run. The facade fills the first block for every
// scheme; a plan's Assemble fills the later fields of the schemes they
// belong to.
type Outcome struct {
	// Scheme is the registry name of the scheme that ran.
	Scheme string
	// Graph is the topology the run executed on.
	Graph *Graph
	// Source is the node that originated µ in this run.
	Source int
	// Mu is the broadcast message.
	Mu string
	// Labeling is the labeling the run executed under.
	Labeling *Labeling
	// Result is the raw engine observation (transmissions, receptions,
	// collisions, message sizes).
	Result *Result
	// InformedRound[v] is the round in which v first learned µ (0 for the
	// source, and for nodes never informed). The facade reads it, with
	// AllInformed and CompletionRound, from Result for every scheme: v's
	// first reception that carries µ, a reception in the run's last round
	// included. That is a data message, or at barb's coordinator (the node
	// labeled 111) the acknowledgement that fetches µ from the source. A
	// reception a crash wiped is neither in Result nor counted here; the
	// Trace keeps the channel delivery.
	InformedRound []int
	// AllInformed reports whether every node learned µ.
	AllInformed bool
	// CompletionRound is the largest InformedRound.
	CompletionRound int
	// Coverage is the delivered fraction of the network: informed nodes
	// (source included) over all nodes, in [0, 1]. Under faults this is
	// the graded success measure a binary AllInformed cannot express.
	Coverage float64
	// Degraded classifies the coverage (see Degradation): "none" for a
	// complete broadcast down to "total" when only the source knows µ.
	Degraded Degradation

	// AckRound is the round the source received the acknowledgement
	// (scheme "back"; 0 when absent): its first ack reception in Result.
	// A wiped ack is neither in Result nor counted; the Trace keeps the
	// channel delivery.
	AckRound int

	// KnowsCompleteRound[v] is the absolute round from which v knows the
	// broadcast completed (scheme "barb"; 0 = never).
	KnowsCompleteRound []int
	// T is the completion estimate disseminated by Barb's coordinator.
	T int
}

// Scheme is the single contract every algorithm in this repository
// implements: label a graph, plan a broadcast over the labeling, verify
// the outcome. All nine built-in schemes (b, back, barb, onebit, gjp,
// roundrobin, colorrobin, centralized, flooding) register implementations
// of this interface; new algorithms plug in via Register without touching
// any caller.
type Scheme interface {
	// Name is the registry key (e.g. "b", "barb", "roundrobin").
	Name() string
	// Describe is a one-line human description (label length, origin).
	Describe() string
	// Anchor is the one node the scheme's labels depend on, for a run
	// from source with coordinator r: source, r, or 0 when they depend on
	// no node. Labelings are computed, and cached, per anchor.
	Anchor(source, r int) int
	// Label computes the scheme's labeling of g for anchor (its Source).
	Label(g *Graph, anchor int, cfg *Config) (*Labeling, error)
	// Plan instantiates a broadcast of mu from source under labeling l:
	// fresh protocols, one per node, the run's bounds and, if the scheme
	// has outcome fields of its own, their assembler. The facade runs
	// every plan the same way. Errors are reserved for impossible setups;
	// an unsuccessful broadcast yields an Outcome with AllInformed ==
	// false that Verify rejects.
	Plan(l *Labeling, source int, mu string) (Plan, error)
	// Verify checks the outcome's fields against the scheme's guarantees
	// (the paper's theorems for the λ family, collision-freeness for the
	// slotted baselines, plain completion for flooding). An outcome with a
	// part missing is an error, not a panic.
	Verify(out *Outcome) error
}

// Plan is one broadcast ready to run: the facade runs Protocols on the
// engine under the bounds below (which WithMaxRounds and the other
// options adjust) and builds the run's Outcome. It fills the fields every
// scheme shares (Scheme, Graph, Source, Mu, Labeling, Result, and who was
// informed: InformedRound, AllInformed, CompletionRound), hands the
// Outcome to Assemble, and then computes Coverage and Degraded.
type Plan struct {
	// Protocols holds one fresh protocol per node.
	Protocols []Protocol
	// MaxRounds bounds the run (> 0); WithMaxRounds overrides it.
	MaxRounds int
	// StopAfterSilent, when > 0, ends the run after this many consecutive
	// rounds without a transmission.
	StopAfterSilent int
	// Stop, when non-nil, is evaluated after each round; returning true
	// ends the run.
	Stop func(round int) bool
	// Assemble, when non-nil, adds the scheme's own fields to the run's
	// Outcome: back's AckRound, barb's KnowsCompleteRound and T, or the
	// labeling centralized recomputed for another source. It is called at
	// most once, after the run: the plan's protocols are dead once it
	// returns, since a plan may hand their memory to later runs (the λ
	// schemes return their pooled slab), so neither the Outcome nor the
	// caller may keep a reference to them.
	Assemble func(out *Outcome)
}
