package core

import (
	"testing"
)

func TestParseLabel(t *testing.T) {
	if l, err := ParseLabel([]byte("0101")); err != nil || l != "0101" {
		t.Fatalf("ParseLabel(0101) = %q, %v", l, err)
	}
	if l, err := ParseLabel(nil); err != nil || l != "" {
		t.Fatalf("empty label: %q, %v", l, err)
	}
	for _, bad := range []string{"01a", "2x", "1 "} {
		if _, err := ParseLabel([]byte(bad)); err == nil {
			t.Fatalf("ParseLabel(%q) accepted a non-bit byte", bad)
		}
		if Label(bad).Valid() {
			t.Fatalf("Label(%q).Valid() = true", bad)
		}
	}
	// Labels of up to 3 bits are MakeLabel's interned constants: parsing
	// one allocates nothing.
	for _, s := range []string{"", "1", "10", "011"} {
		b := []byte(s)
		var got Label
		allocs := testing.AllocsPerRun(100, func() { got, _ = ParseLabel(b) })
		if allocs != 0 || got != Label(s) || !got.Valid() {
			t.Fatalf("ParseLabel(%q) = %q with %v allocs, want the interned label", s, got, allocs)
		}
	}
}

func TestMakeLabelAndBits(t *testing.T) {
	l := MakeLabel(true, false, true)
	if l != Label("101") {
		t.Fatalf("MakeLabel = %q", l)
	}
	if !l.X1() || l.X2() || !l.X3() {
		t.Fatalf("bits wrong for %q", l)
	}
	if l.Bit(3) || l.Bit(-1) {
		t.Fatal("out-of-range bits must be false")
	}
	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}
}

func TestLabelHelpers(t *testing.T) {
	labels := []Label{"10", "10", "01", "111"}
	if MaxLen(labels) != 3 {
		t.Fatalf("MaxLen = %d", MaxLen(labels))
	}
	if Distinct(labels) != 3 {
		t.Fatalf("Distinct = %d", Distinct(labels))
	}
	h := Histogram(labels)
	if h["10"] != 2 || h["01"] != 1 || h["111"] != 1 {
		t.Fatalf("Histogram = %v", h)
	}
	s := Strings(labels)
	if len(s) != 4 || s[0] != "10" {
		t.Fatalf("Strings = %v", s)
	}
}
