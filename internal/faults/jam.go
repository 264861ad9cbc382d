package faults

import "sort"

// JamConfig parameterizes the budgeted jamming adversary.
type JamConfig struct {
	// Budget is the total number of transmissions the adversary may jam
	// over the whole run; ≤ 0 means unlimited (bounded only by PerRound
	// and the window).
	Budget int
	// PerRound caps the jams spent in a single round; ≤ 0 means
	// unlimited.
	PerRound int
	// From and To bound the active round window, inclusive; zero means
	// unbounded on that side (From defaults to round 1).
	From, To int
	// Nodes restricts the targetable transmitters; empty means any node.
	Nodes []int
	// Greedy selects the frontier-targeting strategy: jam the
	// transmitters whose delivery would inform the most still-uninformed
	// neighbours (ties to the lower node id), and never waste budget on a
	// transmission that informs nobody new. When false the adversary is
	// oblivious: it picks among eligible transmitters by seeded hash,
	// ignoring protocol progress.
	Greedy bool
	// Seed drives the oblivious variant's selection.
	Seed int64
}

// jammer is the budgeted adversarial jamming model.
type jammer struct {
	cfg     JamConfig
	spent   int
	targets []bool // nil when every node is targetable

	// scratch for per-round candidate ranking
	cand []jamCandidate
}

type jamCandidate struct {
	node int32
	key  uint64 // ranking key: gain (greedy) or hash draw (oblivious)
}

// NewJam returns the budgeted jamming adversary described by cfg.
func NewJam(cfg JamConfig) Model {
	return &jammer{cfg: cfg}
}

func (j *jammer) Reset(n int) {
	j.spent = 0
	j.targets = nil
	if len(j.cfg.Nodes) > 0 {
		j.targets = make([]bool, n)
		for _, v := range j.cfg.Nodes {
			if v >= 0 && v < n {
				j.targets[v] = true
			}
		}
	}
}

func (j *jammer) Apply(st *State, w *Words) {
	if st.Transmitters == nil {
		return // jamming is decided once the round's transmitters are known
	}
	if st.Round < j.cfg.From || (j.cfg.To > 0 && st.Round > j.cfg.To) {
		return
	}
	left := -1 // unlimited
	if j.cfg.Budget > 0 {
		left = j.cfg.Budget - j.spent
		if left <= 0 {
			return
		}
	}
	quota := left
	if j.cfg.PerRound > 0 && (quota < 0 || j.cfg.PerRound < quota) {
		quota = j.cfg.PerRound
	}

	j.cand = j.cand[:0]
	for _, t := range st.Transmitters {
		if j.targets != nil && !j.targets[t] {
			continue
		}
		if j.cfg.Greedy {
			// Gain: how many uninformed listeners would this transmission
			// reach? Zero-gain transmissions are never worth budget.
			gain := uint64(0)
			for _, w := range st.CSR.Neighbors(int(t)) {
				if !st.Heard[w] {
					gain++
				}
			}
			if gain == 0 {
				continue
			}
			j.cand = append(j.cand, jamCandidate{node: t, key: gain})
		} else {
			j.cand = append(j.cand, jamCandidate{node: t, key: hash64(j.cfg.Seed, int(t), st.Round)})
		}
	}
	if len(j.cand) == 0 {
		return
	}
	if quota >= 0 && len(j.cand) > quota {
		// Rank: greedy wants the highest gain first, oblivious the
		// smallest hash first; both tie-break on the node id so the
		// selection is deterministic.
		sort.Slice(j.cand, func(a, b int) bool {
			ca, cb := j.cand[a], j.cand[b]
			if ca.key != cb.key {
				if j.cfg.Greedy {
					return ca.key > cb.key
				}
				return ca.key < cb.key
			}
			return ca.node < cb.node
		})
		j.cand = j.cand[:quota]
	}
	for _, c := range j.cand {
		w.SetJam(int(c.node))
		j.spent++
	}
}
