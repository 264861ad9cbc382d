package radio

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// Trace records per-round channel activity. It exists to reproduce the
// paper's Figure 1 annotations and to debug protocol implementations.
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

// TraceRx is one successful delivery.
type TraceRx struct {
	Node int
	Msg  Message
}

// record appends one round: its transmitters (tx, ascending, with their
// messages in out) and its deliveries in ascending node order, read from
// the round's delivery words. Silent rounds are omitted.
func (t *Trace) record(round int, tx []int32, out []Message, delivered []uint64, msgs []Message) {
	tr := TraceRound{Round: round}
	for _, v := range tx {
		tr.Transmitters = append(tr.Transmitters, TraceTx{Node: int(v), Msg: out[v]})
	}
	for wi, word := range delivered {
		for ; word != 0; word &= word - 1 {
			v := wi<<6 | bits.TrailingZeros64(word)
			tr.Deliveries = append(tr.Deliveries, TraceRx{Node: v, Msg: msgs[v]})
		}
	}
	if len(tr.Transmitters) > 0 || len(tr.Deliveries) > 0 {
		t.Rounds = append(t.Rounds, tr)
	}
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
		out = append(out, rec.Round)
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
