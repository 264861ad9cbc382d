package radio

// Scripted is a Protocol that transmits fixed messages at a fixed set of
// rounds, regardless of what it hears. It backs the centralized-schedule
// baseline (where a controller with full topology knowledge precomputes
// collision-free schedules) and the engine tests. CompiledScript builds
// one; the zero Scripted never transmits.
type Scripted struct {
	rounds []int // ascending transmission rounds
	msgs   []Message
	round  int
	idx    int // first entry with rounds[idx] >= the next round
}

// CompiledScript returns a protocol value transmitting msgs[i] in round
// rounds[i]. rounds must be ascending; both slices are retained, not
// copied. The value form lets callers bulk-allocate one []Scripted for a
// whole network.
func CompiledScript(rounds []int, msgs []Message) Scripted {
	return Scripted{rounds: rounds, msgs: msgs}
}

// Step implements Protocol.
func (s *Scripted) Step(_, out *Message) bool {
	s.round++
	for s.idx < len(s.rounds) && s.rounds[s.idx] < s.round {
		s.idx++
	}
	if s.idx < len(s.rounds) && s.rounds[s.idx] == s.round {
		*out = s.msgs[s.idx]
		s.idx++
		return true
	}
	return false
}

// NextWake implements Waker: the next scheduled transmission round.
func (s *Scripted) NextWake() int {
	for s.idx < len(s.rounds) && s.rounds[s.idx] <= s.round {
		s.idx++
	}
	if s.idx < len(s.rounds) {
		return s.rounds[s.idx]
	}
	return NeverWake
}

// Skip implements Waker.
func (s *Scripted) Skip(rounds int) { s.round += rounds }
