package radio

import (
	"testing"

	"radiobcast/internal/faults"
	"radiobcast/internal/graph"
)

func TestDropSuppressesDelivery(t *testing.T) {
	g := graph.Path(2)
	ps := []Protocol{script(Message{Kind: KindData, Payload: "x"}, 1, 3), &Scripted{}}
	res := Run(g, ps, Options{
		MaxRounds: 4,
		Faults:    DropFunc(func(node, round int) bool { return node == 0 && round == 1 }),
	})
	// Round 1 jammed; round 3 delivered.
	if got := res.FirstReception(1, KindData); got != 3 {
		t.Fatalf("first reception = %d, want 3", got)
	}
	// The transmitter still counts both transmissions (its radio fired).
	if len(res.Transmits(0)) != 2 {
		t.Fatalf("transmit count = %d, want 2", len(res.Transmits(0)))
	}
}

func TestDropResolvesCollisions(t *testing.T) {
	// Two leaves transmit; jamming one of them turns the collision into a
	// clean delivery of the other.
	g := graph.Star(3)
	ps := []Protocol{
		&Scripted{},
		script(Message{Kind: KindData, Payload: "a"}, 1),
		script(Message{Kind: KindData, Payload: "b"}, 1),
	}
	res := Run(g, ps, Options{
		MaxRounds: 2,
		Faults:    DropFunc(func(node, round int) bool { return node == 2 }),
	})
	if len(res.Receives(0)) != 1 || res.Message(res.Receives(0)[0]).Payload != "a" {
		t.Fatalf("centre receptions = %+v", res.Receives(0))
	}
	if res.Collisions[0] != 0 {
		t.Fatal("jammed transmitter still caused a collision")
	}
}

func TestDropAffectsNoiseFlag(t *testing.T) {
	g := graph.Path(2)
	rec := &noiseRecorder{}
	ps := []Protocol{script(Message{Kind: KindData}, 1), rec}
	Run(g, ps, Options{
		MaxRounds: 2,
		Faults:    DropFunc(func(node, round int) bool { return true }),
	})
	if rec.busy[1] {
		t.Fatal("jammed transmission must not register as noise")
	}
}

func TestDropFuncAdapter(t *testing.T) {
	if DropFunc(nil) != nil {
		t.Fatal("DropFunc(nil) must be nil")
	}
	var calls [][2]int
	m := DropFunc(func(node, round int) bool {
		calls = append(calls, [2]int{node, round})
		return node == 1
	})
	m.Reset(3)
	w := &faults.Words{Jam: make([]uint64, 1), Down: make([]uint64, 1), Wipe: make([]uint64, 1)}
	m.Apply(&faults.State{Round: 4}, w) // pre-step: must not consult f
	if len(calls) != 0 {
		t.Fatal("DropFunc consulted f in the pre-step phase")
	}
	m.Apply(&faults.State{Round: 4, Transmitters: []int32{0, 1}}, w)
	if len(calls) != 2 || calls[0] != [2]int{0, 4} || calls[1] != [2]int{1, 4} {
		t.Fatalf("DropFunc consulted f at %v", calls)
	}
	if w.Jam[0] != 1<<1 || w.Down[0] != 0 || w.Wipe[0] != 0 {
		t.Fatalf("DropFunc effects: jam %b, down %b, wipe %b, want node 1 jammed only", w.Jam[0], w.Down[0], w.Wipe[0])
	}
}
