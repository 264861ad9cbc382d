package radio

import "radiobcast/internal/graph"

// BatchRun is one lane of a RunBatch: its protocol vector plus the
// engine options of a standalone Run. Lanes may differ in everything —
// sources, stop conditions, fault models, seeds, tracing — as long as
// they share the graph.
type BatchRun struct {
	Protos []Protocol
	Opt    Options
}

// RunBatch executes B same-graph runs in lockstep: every lane advances
// one round before any lane starts the next, so a round's pass over the
// frozen CSR and its neighborhood slabs serves the whole batch while the
// graph is hot in cache — the label-once/run-many regime (sweep repeats,
// source sweeps, fault-seed sweeps) executed as one interleaved walk
// instead of B cold ones. Each lane runs on its own Sim (opt.Sim if set,
// else pooled), observes its own stop conditions, and yields a Result
// bit-identical to a standalone Run with the same options. A lane with
// Options.Engine set is handed to that engine instead.
func RunBatch(g *graph.Graph, runs []BatchRun) []*Result {
	results := make([]*Result, len(runs))
	type slot struct {
		lane   bitLane
		idx    int
		pooled bool
	}
	var lanes []*slot
	for i := range runs {
		opt := runs[i].Opt
		if opt.Engine != nil {
			results[i] = opt.Engine(g, runs[i].Protos, opt)
			continue
		}
		s := opt.Sim
		pooled := s == nil
		if pooled {
			s = simPool.Get().(*Sim)
		}
		sl := &slot{idx: i, pooled: pooled}
		sl.lane.init(s, g, runs[i].Protos, opt)
		lanes = append(lanes, sl)
	}
	live := len(lanes)
	for round := 1; live > 0; round++ {
		for _, sl := range lanes {
			if sl.lane.done {
				continue
			}
			sl.lane.runRound(round)
			if sl.lane.done {
				results[sl.idx] = sl.lane.finish()
				if sl.pooled {
					simPool.Put(sl.lane.s)
				}
				live--
			}
		}
	}
	return results
}
