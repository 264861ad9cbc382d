// Package nodeset provides a compact set of node identifiers in the range
// [0, n). It is the workhorse of the stage construction in package core:
// all five set sequences of the paper (INF, UNINF, FRONTIER, DOM, NEW) are
// represented as Sets. Iteration order is always ascending node index, which
// keeps every algorithm in this repository deterministic.
package nodeset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a fixed-universe bitset over node identifiers 0..n-1.
// The zero value is not usable; construct with New.
type Set struct {
	n     int
	words []uint64
}

// New returns an empty set over the universe {0, ..., n-1}.
func New(n int) *Set {
	if n < 0 {
		panic(fmt.Sprintf("nodeset: negative universe size %d", n))
	}
	return &Set{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// Of returns a set over {0..n-1} containing the given elements.
func Of(n int, elems ...int) *Set {
	s := New(n)
	for _, e := range elems {
		s.Add(e)
	}
	return s
}

// Full returns the set {0, ..., n-1}.
func Full(n int) *Set {
	s := New(n)
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
	return s
}

// FromWords returns a set over {0..n-1} initialized from bit words (64
// nodes per word, node v at bit v%64 of word v/64). The words are
// copied; missing trailing words read as zero, and bits at or above n
// are dropped.
func FromWords(n int, words []uint64) *Set {
	s := New(n)
	copy(s.words, words)
	s.trim()
	return s
}

// OfInt32 returns a set over {0..n-1} containing the given elements — the
// int32-list form used by the delta-compressed stage storage in core.
func OfInt32(n int, elems []int32) *Set {
	s := New(n)
	for _, e := range elems {
		s.Add(int(e))
	}
	return s
}

func (s *Set) check(v int) {
	if v < 0 || v >= s.n {
		panic(fmt.Sprintf("nodeset: element %d out of universe [0,%d)", v, s.n))
	}
}

// trim clears bits above the universe so that Count and Equal stay exact.
func (s *Set) trim() {
	if s.n%wordBits != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (uint64(1) << uint(s.n%wordBits)) - 1
	}
}

// Add inserts v.
func (s *Set) Add(v int) {
	s.check(v)
	s.words[v/wordBits] |= 1 << uint(v%wordBits)
}

// Remove deletes v.
func (s *Set) Remove(v int) {
	s.check(v)
	s.words[v/wordBits] &^= 1 << uint(v%wordBits)
}

// Has reports whether v is in the set.
func (s *Set) Has(v int) bool {
	s.check(v)
	return s.words[v/wordBits]&(1<<uint(v%wordBits)) != 0
}

// Count returns the number of elements.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether the set has no elements.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy.
func (s *Set) Clone() *Set {
	c := New(s.n)
	copy(c.words, s.words)
	return c
}

func (s *Set) sameUniverse(t *Set) {
	if s.n != t.n {
		panic(fmt.Sprintf("nodeset: universe mismatch %d vs %d", s.n, t.n))
	}
}

// UnionWith adds every element of t to s and returns s.
func (s *Set) UnionWith(t *Set) *Set {
	s.sameUniverse(t)
	for i := range s.words {
		s.words[i] |= t.words[i]
	}
	return s
}

// SubtractWith removes every element of t from s and returns s.
func (s *Set) SubtractWith(t *Set) *Set {
	s.sameUniverse(t)
	for i := range s.words {
		s.words[i] &^= t.words[i]
	}
	return s
}

// Union returns a new set s ∪ t.
func Union(s, t *Set) *Set { return s.Clone().UnionWith(t) }

// Subtract returns a new set s \ t.
func Subtract(s, t *Set) *Set { return s.Clone().SubtractWith(t) }

// Equal reports whether s and t contain the same elements.
func (s *Set) Equal(t *Set) bool {
	if s.n != t.n {
		return false
	}
	for i := range s.words {
		if s.words[i] != t.words[i] {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every element of s is in t.
func (s *Set) SubsetOf(t *Set) bool {
	s.sameUniverse(t)
	for i := range s.words {
		if s.words[i]&^t.words[i] != 0 {
			return false
		}
	}
	return true
}

// Disjoint reports whether s ∩ t is empty.
func (s *Set) Disjoint(t *Set) bool {
	s.sameUniverse(t)
	for i := range s.words {
		if s.words[i]&t.words[i] != 0 {
			return false
		}
	}
	return true
}

// ForEach calls f for each member in ascending order.
func (s *Set) ForEach(f func(v int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			f(wi*wordBits + b)
			w &= w - 1
		}
	}
}

// Min returns the smallest element, or -1 if the set is empty.
func (s *Set) Min() int {
	for wi, w := range s.words {
		if w != 0 {
			return wi*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// String renders the set as {a, b, c}.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(v int) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", v)
	})
	b.WriteByte('}')
	return b.String()
}
