package faults

import "math"

// CrashConfig parameterizes the crash–recovery model.
type CrashConfig struct {
	// Rate is the per-node, per-round probability of starting an outage
	// while healthy; must lie in [0, 1].
	Rate float64
	// Down is the outage length in rounds; values < 1 are treated as 1.
	Down int
	// Lose selects the memory policy: when true a crashing node also
	// discards its pending (not yet processed) reception — the
	// crash-with-memory-loss policy; when false it retains everything it
	// heard and resumes where it left off.
	Lose bool
	// From and To bound the rounds in which new crashes may start,
	// inclusive; zero means unbounded on that side. Outages themselves may
	// extend past To.
	From, To int
	// Seed drives the crash draws.
	Seed int64
}

// crasher is the seeded crash–recovery model.
type crasher struct {
	cfg       CrashConfig
	bound     uint64
	downUntil []int32 // last round of v's current outage; 0 = healthy
}

// NewCrash returns the crash–recovery model described by cfg.
func NewCrash(cfg CrashConfig) Model {
	// No run outlasts MaxInt32 rounds, the most downUntil holds.
	cfg.Down = min(max(cfg.Down, 1), math.MaxInt32)
	return &crasher{cfg: cfg, bound: threshold(cfg.Rate)}
}

func (c *crasher) Reset(n int) {
	if cap(c.downUntil) < n {
		c.downUntil = make([]int32, n)
	}
	c.downUntil = c.downUntil[:n]
	for i := range c.downUntil {
		c.downUntil[i] = 0
	}
}

func (c *crasher) Apply(st *State, w *Words) {
	if st.Transmitters != nil {
		return // crashes land before the protocols step
	}
	r := st.Round
	inWindow := r >= c.cfg.From && (c.cfg.To <= 0 || r <= c.cfg.To)
	for v := range c.downUntil {
		if r <= int(c.downUntil[v]) {
			w.SetDown(v) // outage in progress
			continue
		}
		if inWindow && hash64(c.cfg.Seed, v, r) < c.bound {
			c.downUntil[v] = int32(min(r+c.cfg.Down-1, math.MaxInt32))
			w.SetDown(v)
			if c.cfg.Lose {
				w.SetWipe(v)
			}
		}
	}
}
