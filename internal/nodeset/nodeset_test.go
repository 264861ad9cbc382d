package nodeset

import (
	"math/bits"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	s := New(100)
	if !s.Empty() {
		t.Fatal("new set should be empty")
	}
	if s.Count() != 0 {
		t.Fatalf("Count = %d, want 0", s.Count())
	}
	if s.n != 100 {
		t.Fatalf("universe = %d, want 100", s.n)
	}
	if s.Min() != -1 || s.Max() != -1 {
		t.Fatalf("Min/Max of empty = %d/%d, want -1/-1", s.Min(), s.Max())
	}
}

func TestAddHasRemove(t *testing.T) {
	s := New(130) // crosses a word boundary
	for _, v := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Has(v) {
			t.Fatalf("Has(%d) before Add", v)
		}
		s.Add(v)
		if !s.Has(v) {
			t.Fatalf("!Has(%d) after Add", v)
		}
	}
	if s.Count() != 8 {
		t.Fatalf("Count = %d, want 8", s.Count())
	}
	s.Remove(64)
	if s.Has(64) {
		t.Fatal("Has(64) after Remove")
	}
	if s.Count() != 7 {
		t.Fatalf("Count = %d, want 7", s.Count())
	}
}

func TestAddIdempotent(t *testing.T) {
	s := New(10)
	s.Add(5)
	s.Add(5)
	if s.Count() != 1 {
		t.Fatalf("Count = %d, want 1", s.Count())
	}
}

func TestRemoveAbsent(t *testing.T) {
	s := New(10)
	s.Remove(3) // must not panic
	if !s.Empty() {
		t.Fatal("should still be empty")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range element")
		}
	}()
	New(10).Add(10)
}

func TestNegativeUniversePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative universe")
		}
	}()
	New(-1)
}

func TestFull(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 128, 200} {
		f := Full(n)
		if f.Count() != n {
			t.Fatalf("Full(%d).Count = %d", n, f.Count())
		}
		if n > 0 && (f.Min() != 0 || f.Max() != n-1) {
			t.Fatalf("Full(%d) Min/Max = %d/%d", n, f.Min(), f.Max())
		}
	}
}

func TestOf(t *testing.T) {
	s := Of(20, 3, 1, 4, 1, 5)
	want := []int{1, 3, 4, 5}
	if got := s.Elements(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Elements = %v, want %v", got, want)
	}
}

func TestSetAlgebra(t *testing.T) {
	a := Of(10, 1, 2, 3, 4)
	b := Of(10, 3, 4, 5, 6)
	if got := Union(a, b).Elements(); !reflect.DeepEqual(got, []int{1, 2, 3, 4, 5, 6}) {
		t.Fatalf("Union = %v", got)
	}
	if got := Intersect(a, b).Elements(); !reflect.DeepEqual(got, []int{3, 4}) {
		t.Fatalf("Intersect = %v", got)
	}
	if got := Subtract(a, b).Elements(); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("Subtract = %v", got)
	}
	// operands untouched
	if !reflect.DeepEqual(a.Elements(), []int{1, 2, 3, 4}) {
		t.Fatal("Union/Intersect/Subtract must not mutate operands")
	}
}

func TestSubsetDisjoint(t *testing.T) {
	a := Of(10, 1, 2)
	b := Of(10, 1, 2, 3)
	c := Of(10, 4, 5)
	if !a.SubsetOf(b) {
		t.Fatal("a ⊆ b expected")
	}
	if b.SubsetOf(a) {
		t.Fatal("b ⊄ a expected")
	}
	if !a.Disjoint(c) {
		t.Fatal("a, c disjoint expected")
	}
	if a.Disjoint(b) {
		t.Fatal("a, b not disjoint expected")
	}
}

func TestEqual(t *testing.T) {
	a := Of(70, 0, 69)
	b := Of(70, 0, 69)
	if !a.Equal(b) {
		t.Fatal("equal sets reported unequal")
	}
	b.Add(33)
	if a.Equal(b) {
		t.Fatal("unequal sets reported equal")
	}
	if a.Equal(Of(71, 0, 69)) {
		t.Fatal("different universes must not be equal")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := Of(10, 1)
	b := a.Clone()
	b.Add(2)
	if a.Has(2) {
		t.Fatal("Clone shares storage with original")
	}
}

func TestUniverseMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on universe mismatch")
		}
	}()
	New(5).UnionWith(New(6))
}

func TestMinMax(t *testing.T) {
	s := Of(200, 7, 64, 128, 199)
	if s.Min() != 7 {
		t.Fatalf("Min = %d", s.Min())
	}
	if s.Max() != 199 {
		t.Fatalf("Max = %d", s.Max())
	}
}

func TestString(t *testing.T) {
	if got := Of(10, 2, 5).String(); got != "{2, 5}" {
		t.Fatalf("String = %q", got)
	}
	if got := New(10).String(); got != "{}" {
		t.Fatalf("String = %q", got)
	}
}

func TestForEachAscending(t *testing.T) {
	s := Of(300, 250, 3, 170, 64)
	var got []int
	s.ForEach(func(v int) { got = append(got, v) })
	if !sort.IntsAreSorted(got) {
		t.Fatalf("ForEach order not ascending: %v", got)
	}
	if len(got) != 4 {
		t.Fatalf("ForEach visited %d elements, want 4", len(got))
	}
}

// randomSet builds a set plus a reference map from a seed.
func randomSet(r *rand.Rand, n int) (*Set, map[int]bool) {
	s := New(n)
	ref := make(map[int]bool)
	for i := 0; i < n/2; i++ {
		v := r.Intn(n)
		s.Add(v)
		ref[v] = true
	}
	return s, ref
}

func TestQuickAgainstMapModel(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(257)
		s, ref := randomSet(r, n)
		if s.Count() != len(ref) {
			return false
		}
		for v := 0; v < n; v++ {
			if s.Has(v) != ref[v] {
				return false
			}
		}
		// removal keeps the models in sync
		for v := range ref {
			s.Remove(v)
			delete(ref, v)
			break
		}
		return s.Count() == len(ref)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDeMorgan(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		a, _ := randomSet(r, n)
		b, _ := randomSet(r, n)
		full := Full(n)
		// ¬(a ∪ b) == ¬a ∩ ¬b
		lhs := Subtract(full, Union(a, b))
		rhs := Intersect(Subtract(full, a), Subtract(full, b))
		return lhs.Equal(rhs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickUnionCommutesIntersectDistributes(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		a, _ := randomSet(r, n)
		b, _ := randomSet(r, n)
		c, _ := randomSet(r, n)
		if !Union(a, b).Equal(Union(b, a)) {
			return false
		}
		// a ∩ (b ∪ c) == (a ∩ b) ∪ (a ∩ c)
		return Intersect(a, Union(b, c)).Equal(Union(Intersect(a, b), Intersect(a, c)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSubtractSubset(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		a, _ := randomSet(r, n)
		b, _ := randomSet(r, n)
		d := Subtract(a, b)
		return d.SubsetOf(a) && d.Disjoint(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAdd(b *testing.B) {
	s := New(1 << 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Add(i % (1 << 16))
	}
}

func BenchmarkCount(b *testing.B) {
	s := Full(1 << 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if s.Count() != 1<<16 {
			b.Fatal("bad count")
		}
	}
}

// The set operations only the tests use.

// Elements returns the members in ascending order.
func (s *Set) Elements() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(v int) { out = append(out, v) })
	return out
}

// IntersectWith keeps only elements also in t and returns s.
func (s *Set) IntersectWith(t *Set) *Set {
	s.sameUniverse(t)
	for i := range s.words {
		s.words[i] &= t.words[i]
	}
	return s
}

// Intersect returns a new set s ∩ t.
func Intersect(s, t *Set) *Set { return s.Clone().IntersectWith(t) }

// Max returns the largest element, or -1 if the set is empty.
func (s *Set) Max() int {
	for wi := len(s.words) - 1; wi >= 0; wi-- {
		if w := s.words[wi]; w != 0 {
			return wi*wordBits + wordBits - 1 - bits.LeadingZeros64(w)
		}
	}
	return -1
}
