package radio

import "radiobcast/internal/faults"

// DropFunc turns a predicate into a fault model for the engine tests:
// node v's round-r transmission is jammed when f(v, r) is true. It
// expresses fault patterns no model of internal/faults does, which the
// engine tests and the engine fuzz target drive the engines with. It
// consults f only for actual transmitters, the only nodes a jam can
// affect.
func DropFunc(f func(node, round int) bool) faults.Model {
	if f == nil {
		return nil
	}
	return dropFunc{f}
}

type dropFunc struct{ f func(node, round int) bool }

func (dropFunc) Reset(int) {}

func (d dropFunc) Apply(st *faults.State, w *faults.Words) {
	if st.Transmitters == nil {
		return
	}
	for _, t := range st.Transmitters {
		if d.f(int(t), st.Round) {
			w.SetJam(int(t))
		}
	}
}
