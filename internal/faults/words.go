package faults

// Words is the bit-packed form of a round's effect vector: bit v of
// word v/64 set in Jam/Down/Wipe corresponds to effects[v] carrying the
// matching Effect bit. The bitset engine hands models a Words view so
// effects land directly in the engine's word-parallel state, skipping
// the per-node Effect array entirely; word slices are sized ⌈n/64⌉ and
// arrive with this round's prior phase bits preserved, exactly like the
// effects slice in Apply.
type Words struct {
	Jam, Down, Wipe []uint64
}

// SetJam sets node v's Jam bit.
func (w *Words) SetJam(v int) { w.Jam[v>>6] |= 1 << (uint(v) & 63) }

// SetDown sets node v's Down bit.
func (w *Words) SetDown(v int) { w.Down[v>>6] |= 1 << (uint(v) & 63) }

// SetWipe sets node v's Wipe bit.
func (w *Words) SetWipe(v int) { w.Wipe[v>>6] |= 1 << (uint(v) & 63) }

// WordModel is the optional vectorized fast path of a Model: ApplyWords
// is Apply with the effect vector in bit-packed form, called under the
// identical two-phase contract (pre-step with st.Transmitters == nil,
// post-decision with the transmitter list). Implementations MUST set in
// Words exactly the bits Apply would set in the effects slice —
// TestApplyWordsMatchesApply and the engine's differential tests against
// the reference engine, which only calls Apply, pin this — and must draw
// any hashes in the same order, so stateful models (crash outage timers)
// stay bit-identical whichever path the engine picks. Models whose effect
// computation is inherently order-sensitive over an explicit candidate
// list (the budgeted jammer) simply do not implement WordModel; the
// engine then falls back to Apply and packs the result.
type WordModel interface {
	Model
	ApplyWords(st *State, w *Words)
}

// ApplyWords implements WordModel for DropFunc.
func (d dropFunc) ApplyWords(st *State, w *Words) {
	if st.Transmitters == nil {
		return
	}
	for _, t := range st.Transmitters {
		if d.f(int(t), st.Round) {
			w.SetJam(int(t))
		}
	}
}

// ApplyWords implements WordModel for the i.i.d. jamming channel.
func (r *rateModel) ApplyWords(st *State, w *Words) {
	if st.Transmitters == nil {
		return
	}
	for _, t := range st.Transmitters {
		if r.always || hash64(r.seed, int(t), st.Round) < r.bound {
			w.SetJam(int(t))
		}
	}
}

// ApplyWords implements WordModel for crash–recovery. The loop mirrors
// Apply exactly — same iteration order, same hash draws for healthy
// nodes only — so the outage timers evolve identically on both paths.
func (c *crasher) ApplyWords(st *State, w *Words) {
	if st.Transmitters != nil {
		return
	}
	r := st.Round
	inWindow := r >= c.cfg.From && (c.cfg.To <= 0 || r <= c.cfg.To)
	for v := range c.downUntil {
		if r <= c.downUntil[v] {
			w.SetDown(v)
			continue
		}
		if inWindow && hash64(c.cfg.Seed, v, r) < c.bound {
			c.downUntil[v] = r + c.cfg.Down - 1
			w.SetDown(v)
			if c.cfg.Lose {
				w.SetWipe(v)
			}
		}
	}
}

// ApplyWords implements WordModel for duty-cycling. Seed 0 aligns every
// phase, so a sleeping round fills whole words at once (the tail bits
// past n are harmless: no channel mask ever carries them).
func (d *duty) ApplyWords(st *State, w *Words) {
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

// ApplyWords implements WordModel for churn, whose Apply is a no-op (its
// whole effect is the Topology swap).
func (c *churn) ApplyWords(*State, *Words) {}

// wordComposite is the composite returned by Compose when every member
// has the vectorized path, so the composition keeps it.
type wordComposite struct{ composite }

func (c *wordComposite) ApplyWords(st *State, w *Words) {
	for _, m := range c.models {
		m.(WordModel).ApplyWords(st, w)
	}
}
