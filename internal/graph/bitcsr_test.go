package graph

import (
	"reflect"
	"testing"
)

func TestBitCSRFirstIn(t *testing.T) {
	g := Path(200) // neighbours of v are v−1 and v+1
	bcsr := g.Freeze().Bits()
	words := make([]uint64, (200+63)/64)
	set := func(v int) { words[v>>6] |= 1 << (uint(v) & 63) }

	if got := bcsr.FirstIn(100, words); got != -1 {
		t.Fatalf("FirstIn over empty set = %d, want -1", got)
	}
	set(101)
	if got := bcsr.FirstIn(100, words); got != 101 {
		t.Fatalf("FirstIn = %d, want 101", got)
	}
	set(99) // smaller neighbour wins regardless of insertion order
	if got := bcsr.FirstIn(100, words); got != 99 {
		t.Fatalf("FirstIn = %d, want 99", got)
	}
	set(100) // v's own bit is irrelevant — only neighbours count
	if got := bcsr.FirstIn(100, words); got != 99 {
		t.Fatalf("FirstIn = %d, want 99 (self bit must not count)", got)
	}
}

func TestBitCSRCountIn(t *testing.T) {
	g := Complete(70)
	bcsr := g.Freeze().Bits()
	words := make([]uint64, 2)
	for _, v := range []int{0, 5, 64, 69} {
		words[v>>6] |= 1 << (uint(v) & 63)
	}
	// Node 5 is adjacent to all other nodes; 3 of the 4 set bits are
	// neighbours (its own bit is not an edge in a loop-free graph).
	if got := bcsr.CountIn(5, words); got != 3 {
		t.Fatalf("CountIn = %d, want 3", got)
	}
	if got := bcsr.CountIn(1, words); got != 4 {
		t.Fatalf("CountIn = %d, want 4", got)
	}
}

// TestNewBitCSRDoesNotCache pins the split between the two builders:
// NewBitCSR leaves the CSR's cache empty, and Bits fills it, once, with
// the same slabs.
func TestNewBitCSRDoesNotCache(t *testing.T) {
	csr := Grid(9, 9).Freeze()
	b := NewBitCSR(csr)
	if csr.bits.Load() != nil {
		t.Fatal("NewBitCSR cached its result on the CSR")
	}
	cached := csr.Bits()
	if cached == b || !reflect.DeepEqual(cached, b) {
		t.Fatal("Bits must cache its own copy of the same slabs")
	}
	if csr.Bits() != cached {
		t.Fatal("Bits rebuilt a cached slab form")
	}
}
