package radio

import (
	"fmt"
	"math/bits"

	"radiobcast/internal/faults"
	"radiobcast/internal/graph"
)

// This file is the engine: a sparse-wakeup round loop over []uint64
// bitsets, so that both halves of a round — picking the nodes to step
// and resolving the radio channel — cost word operations instead of
// per-node work.
//
// Stepping: the round's step set is assembled as
//
//	active = eager | received | (busy & noise)
//
// in ⌈n/64⌉ ORs, where eager holds the nodes whose next wake is now or
// every round (non-Wakers, and Wakers whose NextWake is ≤ round+1), and
// a ring-bucket wake calendar re-activates Wakers whose NextWake lands
// on this round. This makes a quiet round cost O(n/64 + active) rather
// than O(n), which is what the mostly-idle ~2n rounds of the path family
// need.
//
// Resolution: each transmitter ORs its neighborhood slabs (graph.BitCSR)
// into two carry-save accumulators — busy1 collects "covered by ≥ 1
// transmitter", busy2 "covered by ≥ 2" — and each touched word is then
// classified once: silence (no bit), single transmitter (busy1 &^ busy2
// → delivery), collision (busy2 → counter), with transmitters and
// radio-off nodes masked out. Only single-reception listeners cost
// per-node work (a slab scan finds their unique sender).
//
// Tracing reads the round's ascending transmitter list and delivery
// words, and a topology-churning fault model swaps the lane's CSR and
// slab form at the round boundary, so every run takes this one path.
//
// The engine's Results are bit-identical to the naive reference engine
// of internal/radio/radiotest, which steps every node every round and
// resolves each listener by scanning its neighbours (pinned by
// FuzzEngineMatchesOracle and the facade's scheme × family × fault-model
// matrices): the step set differs only by rounds a Waker promised to
// spend listening, and within a round the Result is order-independent
// (each node transmits and receives at most once per round, collisions
// are per-round counters).

// ringSize is the wake-calendar horizon (power of two). Wakes further
// out than the horizon park in the bucket of their round modulo the
// horizon and are re-bucketed on drain — one touch per horizon lap, so
// far sleeps cost O(sleep/ringSize) amortized.
const ringSize = 256

// bitState is the word-packed per-run state of the engine, owned by a
// Sim and resized-not-reallocated between runs like every other engine
// buffer.
type bitState struct {
	w int // ⌈n/64⌉ words

	// Double-buffered channel state — who heard a message (setsW) and
	// who heard at least one transmitter (busyW, for collision-detection
	// protocols) in the previous round — cleared via per-half dirty word
	// lists.
	setsW [2][]uint64
	busyW [2][]uint64
	dirty [2][]int32

	// Stepping state.
	eager    []uint64 // nodes stepped every round until they sleep
	active   []uint64 // this round's step set (scratch)
	noiseW   []uint64 // nodes with a NoiseProtocol
	lastStep []int32  // round of each node's last Step, for Waker.Skip
	ring     [][]int32

	// Resolution scratch.
	txW          []uint64 // this round's transmitters
	busy1, busy2 []uint64 // carry-save coverage accumulators
	candSeen     []uint64 // bitset over word indices touched this round
	candList     []int32

	// Fault-effect words (faulted runs only), written by the model's
	// Apply.
	fx faults.Words
}

func (bs *bitState) reset(s *Sim) {
	n := s.n
	w := (n + 63) / 64
	bs.w = w
	for i := 0; i < 2; i++ {
		bs.setsW[i] = grow(bs.setsW[i], w)
		bs.busyW[i] = grow(bs.busyW[i], w)
		bs.dirty[i] = bs.dirty[i][:0]
	}
	bs.eager = grow(bs.eager, w)
	for i := range bs.eager {
		bs.eager[i] = ^uint64(0) // everyone steps in round 1
	}
	if n%64 != 0 && w > 0 {
		bs.eager[w-1] = 1<<(uint(n)&63) - 1 // no phantom nodes past n
	}
	bs.active = grow(bs.active, w)
	bs.noiseW = grow(bs.noiseW, w)
	for v := 0; v < n; v++ {
		if s.noise[v] != nil {
			bs.noiseW[v>>6] |= 1 << (uint(v) & 63)
		}
	}
	bs.lastStep = grow(bs.lastStep, n)
	if bs.ring == nil {
		bs.ring = make([][]int32, ringSize)
	}
	for i := range bs.ring {
		bs.ring[i] = bs.ring[i][:0]
	}
	bs.txW = grow(bs.txW, w)
	bs.busy1 = grow(bs.busy1, w)
	bs.busy2 = grow(bs.busy2, w)
	bs.candSeen = grow(bs.candSeen, (w+63)/64)
	bs.candList = bs.candList[:0]
	if s.faulted {
		bs.fx.Jam = grow(bs.fx.Jam, w)
		bs.fx.Down = grow(bs.fx.Down, w)
		bs.fx.Wipe = grow(bs.fx.Wipe, w)
	}
}

// bitLane is one run driven through the engine: a Sim plus the
// round-loop bookkeeping. Sim.Run drives it one round at a time.
type bitLane struct {
	s    *Sim
	csr  *graph.CSR // current topology; churn swaps it with bcsr
	bcsr *graph.BitCSR
	opt  Options
	fm   faults.Model
	topo faults.TopologyModel
	fst  *faults.State

	rounds, total, silent      int
	rxPrev                     int // start of the previous round's receptions in the log
	silentStopped, interrupted bool
	done                       bool
}

// init validates a (graph, protocols, options) triple, freezes the
// graph, resets s for the run and primes the fault state: the prologue
// of Sim.Run.
func (l *bitLane) init(s *Sim, g *graph.Graph, protos []Protocol, opt Options) {
	n := g.N()
	if len(protos) != n {
		panic(fmt.Sprintf("radio: %d protocols for %d nodes", len(protos), n))
	}
	if opt.MaxRounds <= 0 {
		panic("radio: Options.MaxRounds must be positive")
	}
	csr := g.Freeze()
	s.reset(n, protos)
	*l = bitLane{s: s, csr: csr, bcsr: csr.Bits(), opt: opt}
	if fm := opt.Faults; fm != nil {
		s.heard = grow(s.heard, n)
		if s.txList == nil {
			s.txList = []int32{} // keep non-nil: nil signals the pre-step phase
		}
		fm.Reset(n)
		l.fm = fm
		l.topo, _ = fm.(faults.TopologyModel)
		// fst escapes through the Apply interface calls, so it is
		// allocated only when a model is installed and the clean path
		// stays allocation-free.
		l.fst = &faults.State{}
	}
	s.faulted = l.fm != nil
	s.bits.reset(s)
}

// finish materializes the lane's Result and releases the Sim.
func (l *bitLane) finish() *Result {
	res := l.s.materialize(l.rounds, l.total, l.silentStopped)
	res.Interrupted = l.interrupted
	l.s.release()
	return res
}

// runRound executes one engine round; on the round that ends the run it
// sets l.done (and materializes nothing — callers finish() after).
func (l *bitLane) runRound(round int) {
	s := l.s
	bs := &s.bits
	if l.opt.Ctx != nil && l.opt.Ctx.Err() != nil {
		l.interrupted = true
		l.done = true
		return
	}
	cur, nx := s.cur, 1-s.cur

	if s.faulted {
		// Pre-step fault phase: swap in a churned topology, then let the
		// model set Down/Wipe before any protocol observes its pending
		// reception. Effect words carry over between the two phases of a
		// round (see faults.Words) and are cleared here at the round
		// boundary.
		if l.topo != nil {
			if t := l.topo.Topology(round); t != nil {
				l.csr, l.bcsr = t, t.Bits()
			}
		}
		clear(bs.fx.Jam)
		clear(bs.fx.Down)
		clear(bs.fx.Wipe)
		*l.fst = faults.State{Round: round, CSR: l.csr, Heard: s.heard}
		l.fm.Apply(l.fst, &bs.fx)
		wiped := false
		for i, wp := range bs.fx.Wipe {
			if wp != 0 {
				bs.setsW[cur][i] &^= wp
				bs.busyW[cur][i] &^= wp
				wiped = true
			}
		}
		if wiped {
			s.dropWiped(l.rxPrev, bs.fx.Wipe)
		}
	}
	rxMark := len(s.rxNodes)
	l.rxPrev = rxMark

	// Phase 1: assemble the step set and step it in ascending node
	// order (the fault models' transmitter lists are order-sensitive).
	active := bs.active
	sw, bw := bs.setsW[cur], bs.busyW[cur]
	for i := range active {
		active[i] = bs.eager[i] | sw[i] | (bw[i] & bs.noiseW[i])
	}
	l.drainRing(round)
	s.txList = s.txList[:0]
	for wi := 0; wi < bs.w; wi++ {
		for word := active[wi]; word != 0; word &= word - 1 {
			l.stepActive(wi<<6|bits.TrailingZeros64(word), round)
		}
	}

	if s.faulted {
		// Post-decision fault phase: transmission-level effects (Jam).
		l.fst.Transmitters = s.txList
		l.fm.Apply(l.fst, &bs.fx)
	}

	transmitted := l.resolve(round, nx)

	if s.faulted {
		for _, w := range s.rxNodes[rxMark:] {
			s.heard[w] = true
		}
		for _, t := range s.txList {
			s.heard[t] = true
		}
	}
	if l.opt.Trace != nil {
		l.opt.Trace.record(round, s.txList, s.out, bs.setsW[nx], s.msgs[nx])
	}
	l.total += transmitted
	s.cur = nx
	l.rounds = round
	if transmitted == 0 {
		l.silent++
	} else {
		l.silent = 0
	}
	switch {
	case round >= l.opt.MaxRounds:
		l.done = true
	case l.opt.Stop != nil && l.opt.Stop(round):
		l.done = true
	case l.opt.StopAfterSilent > 0 && l.silent >= l.opt.StopAfterSilent:
		l.silentStopped = true
		l.done = true
	}
}

// drainRing re-activates the Wakers whose scheduled wake is this round.
// Entries are validated against the node's current nextWake, so stale
// entries (the node was re-stepped and re-scheduled since parking) are
// dropped, and wakes a full horizon lap away stay parked.
func (l *bitLane) drainRing(round int) {
	bs := &l.s.bits
	slot := round & (ringSize - 1)
	bucket := bs.ring[slot]
	if len(bucket) == 0 {
		return
	}
	keep := bucket[:0]
	for _, v32 := range bucket {
		v := int(v32)
		switch nw := l.s.nextWake[v]; {
		case nw == round:
			bs.active[v>>6] |= 1 << (uint(v) & 63)
		case nw > round && nw&(ringSize-1) == slot:
			keep = append(keep, v32)
		}
	}
	bs.ring[slot] = keep
}

// stepActive steps node v in the given round: Waker bookkeeping (lazy
// Skip, rescheduling into eager or the wake calendar), the protocol
// step, Down suppression, and transmitter collection.
func (l *bitLane) stepActive(v, round int) {
	s := l.s
	bs := &s.bits
	wi, mask := v>>6, uint64(1)<<(uint(v)&63)
	var tx bool
	if wk := s.wakers[v]; wk != nil {
		if sk := round - 1 - int(bs.lastStep[v]); sk > 0 {
			wk.Skip(sk)
		}
		tx = s.stepNodeBit(v)
		bs.lastStep[v] = int32(round)
		nw := wk.NextWake()
		s.nextWake[v] = nw
		if nw != NeverWake && nw <= round+1 {
			bs.eager[wi] |= mask // wakes now: step every round until it sleeps
		} else {
			bs.eager[wi] &^= mask
			if nw != NeverWake {
				bs.ring[nw&(ringSize-1)] = append(bs.ring[nw&(ringSize-1)], int32(v))
			}
		}
	} else {
		tx = s.stepNodeBit(v) // non-Wakers stay eager for the whole run
		bs.lastStep[v] = int32(round)
	}
	// A radio-off node is no transmitter: the protocol stepped (its clock
	// runs) and believes it transmitted, but nothing reaches the channel.
	if tx && !(s.faulted && bs.fx.Down[wi]&mask != 0) {
		s.txList = append(s.txList, int32(v))
		bs.txW[wi] |= mask
	}
}

// stepNodeBit invokes one protocol step with what v heard last round and
// reports whether v transmits, having written its message to s.out[v].
// Both pointers alias the Sim's buffers; Protocol implementations must
// not retain them beyond the call (see Protocol).
func (s *Sim) stepNodeBit(v int) bool {
	bs := &s.bits
	wi, mask := v>>6, uint64(1)<<(uint(v)&63)
	var rcv *Message
	if bs.setsW[s.cur][wi]&mask != 0 {
		rcv = &s.msgs[s.cur][v]
	}
	if np := s.noise[v]; np != nil {
		return np.StepNoise(rcv, bs.busyW[s.cur][wi]&mask != 0, &s.out[v])
	}
	return s.protos[v].Step(rcv, &s.out[v])
}

// resolve is the word-parallel channel resolution (see the file comment)
// writing deliveries into the nx half; it returns the transmission count.
func (l *bitLane) resolve(round, nx int) int {
	s := l.s
	bs := &s.bits
	for _, wi := range bs.dirty[nx] {
		bs.setsW[nx][wi] = 0
		bs.busyW[nx][wi] = 0
	}
	bs.dirty[nx] = bs.dirty[nx][:0]

	// Scatter: OR each effective transmitter's slabs into the carry-save
	// accumulators, collecting the touched words once each.
	for _, t32 := range s.txList {
		t := int(t32)
		s.logTransmit(t32, round)
		if s.faulted && bs.fx.Jam[t>>6]&(1<<(uint(t)&63)) != 0 {
			continue // jammed: t believes it transmitted, nobody hears it
		}
		words, masks := l.bcsr.Slabs(t)
		for k, wi := range words {
			if bs.candSeen[wi>>6]&(1<<(uint(wi)&63)) == 0 {
				bs.candSeen[wi>>6] |= 1 << (uint(wi) & 63)
				bs.candList = append(bs.candList, wi)
			}
			bs.busy2[wi] |= bs.busy1[wi] & masks[k]
			bs.busy1[wi] |= masks[k]
		}
	}

	// Classify each covered word: transmitters hear nothing (jammed ones
	// included — they believe they transmitted), radio-off nodes hear
	// nothing, the rest split into single-sender deliveries and
	// collisions. Scratch words are re-zeroed as they are consumed.
	for _, wi := range bs.candList {
		excl := bs.txW[wi]
		if s.faulted {
			excl |= bs.fx.Down[wi]
		}
		b1 := bs.busy1[wi] &^ excl
		b2 := bs.busy2[wi] &^ excl
		bs.busy1[wi] = 0
		bs.busy2[wi] = 0
		bs.candSeen[wi>>6] &^= 1 << (uint(wi) & 63)
		if b1 == 0 {
			continue
		}
		bs.busyW[nx][wi] |= b1
		bs.dirty[nx] = append(bs.dirty[nx], wi)
		singles := b1 &^ b2
		bs.setsW[nx][wi] |= singles
		for x := singles; x != 0; x &= x - 1 {
			v := int(wi)<<6 | bits.TrailingZeros64(x)
			msg := s.out[l.findSender(v)]
			s.msgs[nx][v] = msg
			s.rxNodes = append(s.rxNodes, int32(v))
			s.rxRecs = append(s.rxRecs, Reception{Round: round, Msg: msg})
		}
		for x := b2; x != 0; x &= x - 1 {
			s.collisions[int(wi)<<6|bits.TrailingZeros64(x)]++
		}
	}
	bs.candList = bs.candList[:0]
	for _, t := range s.txList {
		bs.txW[t>>6] = 0
	}
	return len(s.txList)
}

// findSender returns the unique effective transmitter adjacent to v —
// only single-reception listeners pay this slab scan.
func (l *bitLane) findSender(v int) int {
	bs := &l.s.bits
	words, masks := l.bcsr.Slabs(v)
	for k, wi := range words {
		x := bs.txW[wi] & masks[k]
		if l.s.faulted {
			x &^= bs.fx.Jam[wi]
		}
		if x != 0 {
			return int(wi)<<6 | bits.TrailingZeros64(x)
		}
	}
	panic("radio: single-transmitter word with no sender")
}
