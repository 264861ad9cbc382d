package radio

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Trace is a run's channel activity round by round, a view of its
// Result (see Result.Trace). It exists to reproduce the paper's Figure 1
// annotations and to debug protocol implementations.
type Trace struct {
	Rounds []TraceRound
}

// TraceRound is the activity of one round.
type TraceRound struct {
	Round        int
	Transmitters []TraceTx
	Deliveries   []TraceRx
}

// TraceTx is one transmission.
type TraceTx struct {
	Node int
	Msg  Message
}

// TraceRx is one channel delivery, a wiped one included.
type TraceRx struct {
	Node int
	Msg  Message
}

// Trace returns the run round by round: each round's transmissions and
// channel deliveries in ascending node order, the deliveries a fault
// wiped included, and silent rounds omitted. It is built on each call.
func (r *Result) Trace() *Trace {
	rounds := make([]TraceRound, r.Rounds+1)
	deliver := func(v int, rec Reception) {
		tr := &rounds[rec.Round]
		tr.Deliveries = append(tr.Deliveries, TraceRx{Node: v, Msg: r.Message(rec)})
	}
	for v := range r.N() {
		for i := r.txOff[v]; i < r.txOff[v+1]; i++ {
			rounds[r.tx[i]].Transmitters = append(rounds[r.tx[i]].Transmitters, TraceTx{Node: v, Msg: r.txMsg[i]})
		}
		for _, rec := range r.Receives(v) {
			deliver(v, rec)
		}
	}
	for i, rec := range r.wiped {
		deliver(int(r.wipedNodes[i]), rec)
	}
	t := &Trace{}
	for round, tr := range rounds {
		if len(tr.Transmitters) > 0 { // every delivery has a transmitter
			slices.SortFunc(tr.Deliveries, func(a, b TraceRx) int { return a.Node - b.Node })
			tr.Round = round
			t.Rounds = append(t.Rounds, tr)
		}
	}
	return t
}

// String renders the trace round by round.
func (t *Trace) String() string {
	var b strings.Builder
	for _, r := range t.Rounds {
		fmt.Fprintf(&b, "round %d:\n", r.Round)
		for _, tx := range r.Transmitters {
			fmt.Fprintf(&b, "  node %d transmits %s\n", tx.Node, tx.Msg.String())
		}
		for _, rx := range r.Deliveries {
			fmt.Fprintf(&b, "  node %d hears %s\n", rx.Node, rx.Msg.String())
		}
	}
	return b.String()
}

// Annotations renders per-node annotations in the style of the paper's
// Figure 1: for each node, the set of rounds in which it transmits in curly
// brackets and the rounds in which it hears a message in parentheses.
func Annotations(res *Result, labels []string) string {
	var b strings.Builder
	for v := range res.N() {
		label := ""
		if labels != nil {
			label = labels[v]
		}
		fmt.Fprintf(&b, "node %2d  %-4s  %-12s %s\n",
			v, label, braced(res.Transmits(v)), parens(receiveRounds(res, v)))
	}
	return b.String()
}

func receiveRounds(res *Result, v int) []int {
	out := make([]int, 0, len(res.Receives(v)))
	for _, rec := range res.Receives(v) {
		out = append(out, int(rec.Round))
	}
	return out
}

func braced(xs []int) string {
	return "{" + joinInts(xs) + "}"
}

func parens(xs []int) string {
	return "(" + joinInts(xs) + ")"
}

func joinInts(xs []int) string {
	sorted := append([]int(nil), xs...)
	sort.Ints(sorted)
	parts := make([]string, len(sorted))
	for i, x := range sorted {
		parts[i] = fmt.Sprintf("%d", x)
	}
	return strings.Join(parts, ",")
}
