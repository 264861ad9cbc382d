package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestFingerprintStructural(t *testing.T) {
	a, b := Grid(4, 4), Grid(4, 4)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("structurally identical graphs have different fingerprints")
	}
	if Path(16).Fingerprint() == Grid(4, 4).Fingerprint() {
		t.Fatal("path and grid of the same size collide")
	}
	if Path(16).Fingerprint() == Path(17).Fingerprint() {
		t.Fatal("paths of different lengths collide")
	}
}

func TestFingerprintInvalidatedByAddEdge(t *testing.T) {
	g := Path(8)
	before := g.Fingerprint()
	g.AddEdge(0, 7)
	after := g.Fingerprint()
	if before == after {
		t.Fatal("AddEdge did not change the fingerprint")
	}
	want := Cycle(8).Fingerprint()
	if after != want {
		t.Fatal("path+closing edge does not fingerprint like the cycle")
	}
}

func TestFingerprintCached(t *testing.T) {
	g := Grid(5, 5)
	if g.Fingerprint() != g.Fingerprint() {
		t.Fatal("fingerprint not stable across calls")
	}
}

// TestFingerprintCarriedByClone: a clone shares its original's hash
// until one of them is edited, and the edit clears only the edited
// graph's.
func TestFingerprintCarriedByClone(t *testing.T) {
	g := Path(8)
	want := g.Fingerprint()
	c := g.Clone()
	if c.fp.Load() != want {
		t.Fatal("Clone dropped the cached fingerprint")
	}
	c.AddEdge(0, 7)
	if c.Fingerprint() != Cycle(8).Fingerprint() || g.Fingerprint() != want {
		t.Fatal("editing a clone did not rehash it alone")
	}
	if Path(8).Clone().Fingerprint() != want {
		t.Fatal("an unhashed graph's clone hashes differently")
	}
}

// TestFromEdgeKeysMatchesAddEdge: FromEdgeKeys builds the graph that
// New and one AddEdge per key build, from keys in any order and with
// repeats.
func TestFromEdgeKeysMatchesAddEdge(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(40)
		want := New(n)
		var keys []int64
		for k := r.Intn(3 * n); k > 0; k-- {
			u, v := r.Intn(n), r.Intn(n)
			if u == v {
				continue
			}
			want.AddEdge(u, v)
			keys = append(keys, int64(min(u, v))*int64(n)+int64(max(u, v)))
			if r.Intn(4) == 0 {
				keys = append(keys, keys[r.Intn(len(keys))])
			}
		}
		got := FromEdgeKeys(n, keys)
		if !reflect.DeepEqual(got.Freeze().Offsets, want.Freeze().Offsets) ||
			!reflect.DeepEqual(got.Freeze().Targets, want.Freeze().Targets) ||
			got.Fingerprint() != want.Fingerprint() {
			t.Fatalf("trial %d (n=%d): FromEdgeKeys disagrees with AddEdge", trial, n)
		}
	}
}
