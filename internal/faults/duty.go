package faults

// DutyConfig parameterizes the deterministic duty-cycling model.
type DutyConfig struct {
	// Period is the schedule length in rounds; values < 1 disable the
	// model (every node always awake).
	Period int
	// On is the number of awake rounds at the start of each period,
	// clamped to [0, Period]. A node sleeps — radio off, protocol clock
	// still running — for the remaining Period−On rounds.
	On int
	// Seed staggers the per-node phase offsets. Seed 0 aligns every
	// node's schedule (all sleep together); any other seed spreads the
	// phases by coordinate hash.
	Seed int64
}

// duty is the deterministic sleep-schedule model.
type duty struct {
	cfg   DutyConfig
	phase []int
}

// NewDutyCycle returns the duty-cycling model described by cfg.
func NewDutyCycle(cfg DutyConfig) Model {
	if cfg.On < 0 {
		cfg.On = 0
	}
	if cfg.Period > 0 && cfg.On > cfg.Period {
		cfg.On = cfg.Period
	}
	return &duty{cfg: cfg}
}

func (d *duty) Reset(n int) {
	if cap(d.phase) < n {
		d.phase = make([]int, n)
	}
	d.phase = d.phase[:n]
	for v := range d.phase {
		if d.cfg.Seed == 0 || d.cfg.Period < 1 {
			d.phase[v] = 0
		} else {
			d.phase[v] = int(hash64(d.cfg.Seed, v, 0) % uint64(d.cfg.Period))
		}
	}
}

// Apply puts the sleeping nodes' radios off. Seed 0 aligns every phase,
// so a sleeping round fills whole words at once (Words ignores the bits
// past n).
func (d *duty) Apply(st *State, w *Words) {
	if st.Transmitters != nil || d.cfg.Period < 1 || d.cfg.On >= d.cfg.Period {
		return
	}
	if d.cfg.Seed == 0 {
		if (st.Round-1)%d.cfg.Period >= d.cfg.On {
			for i := range w.Down {
				w.Down[i] = ^uint64(0)
			}
		}
		return
	}
	for v := range d.phase {
		if (st.Round-1+d.phase[v])%d.cfg.Period >= d.cfg.On {
			w.SetDown(v)
		}
	}
}
