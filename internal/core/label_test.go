package core

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"unsafe"
)

// bitStrings returns every bit string of exactly n bits, in ascending
// binary order.
func bitStrings(n int) []string {
	out := make([]string, 0, 1<<n)
	for x := 0; x < 1<<n; x++ {
		out = append(out, fmt.Sprintf("%0*b", n, x)[:n])
	}
	return out
}

// labelCases is every bit string of up to 12 bits plus 31-bit strings,
// the longest a Label holds.
func labelCases() []string {
	var cases []string
	for n := 0; n <= 12; n++ {
		cases = append(cases, bitStrings(n)...)
	}
	return append(cases,
		strings.Repeat("0", 31), strings.Repeat("1", 31),
		strings.Repeat("10", 15)+"1", "1"+strings.Repeat("0", 30), strings.Repeat("0", 30)+"1")
}

func TestParseLabel(t *testing.T) {
	for _, s := range labelCases() {
		l, err := ParseLabel(s)
		if err != nil {
			t.Fatalf("ParseLabel(%q): %v", s, err)
		}
		if got := l.String(); got != s {
			t.Fatalf("ParseLabel(%q).String() = %q", s, got)
		}
		if l.Len() != len(s) {
			t.Fatalf("ParseLabel(%q).Len() = %d", s, l.Len())
		}
		bits := make([]bool, len(s))
		for i := range s {
			bits[i] = s[i] == '1'
			if l.Bit(i) != bits[i] {
				t.Fatalf("ParseLabel(%q).Bit(%d) = %v", s, i, l.Bit(i))
			}
		}
		if l.Bit(-1) || l.Bit(len(s)) {
			t.Fatalf("ParseLabel(%q) has a bit out of range", s)
		}
		if m := MakeLabel(bits...); m != l {
			t.Fatalf("MakeLabel(%v) = %q, ParseLabel = %q", bits, m, l)
		}
	}
	for _, bad := range []string{"01a", "2x", "1 ", " ", strings.Repeat("1", 32), strings.Repeat("0", 40)} {
		if l, err := ParseLabel(bad); err == nil {
			t.Fatalf("ParseLabel(%q) = %q, want an error", bad, l)
		}
	}
	if _, err := ParseLabel(strings.Repeat("1", 32)); err == nil || !strings.Contains(err.Error(), "31-bit limit") {
		t.Fatalf("a 32-bit label: %v", err)
	}
}

func TestLabelZeroValueAndSize(t *testing.T) {
	var zero Label
	if zero != MakeLabel() || zero != MustParseLabel("") || zero.Len() != 0 || zero.String() != "" || zero.X1() {
		t.Fatalf("the zero Label is %q (len %d), want the empty label", zero, zero.Len())
	}
	if size := unsafe.Sizeof(zero); size != 4 {
		t.Fatalf("a Label takes %d bytes, want 4", size)
	}
}

func TestLabelAllocatesNothing(t *testing.T) {
	for _, s := range []string{"", "1", "10", "011", strings.Repeat("1", 31)} {
		var got Label
		if allocs := testing.AllocsPerRun(100, func() { got, _ = ParseLabel(s) }); allocs != 0 {
			t.Fatalf("ParseLabel(%q) made %v allocations", s, allocs)
		}
		if got.String() != s {
			t.Fatalf("ParseLabel(%q) = %q", s, got)
		}
	}
	x1, x2, x3 := true, false, true
	var got Label
	if allocs := testing.AllocsPerRun(100, func() { got = MakeLabel(x1, x2, x3) }); allocs != 0 {
		t.Fatalf("MakeLabel made %v allocations", allocs)
	}
	buf := make([]byte, 0, 64)
	if allocs := testing.AllocsPerRun(100, func() { buf, _ = got.AppendText(buf[:0]) }); allocs != 0 {
		t.Fatalf("AppendText made %v allocations", allocs)
	}
	if string(buf) != "101" {
		t.Fatalf("AppendText = %q", buf)
	}
}

func TestMakeLabelAndBits(t *testing.T) {
	l := MakeLabel(true, false, true)
	if l != MustParseLabel("101") {
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
	defer func() {
		if recover() == nil {
			t.Fatal("MakeLabel accepted 32 bits")
		}
	}()
	MakeLabel(make([]bool, 32)...)
}

func TestLabelFormatting(t *testing.T) {
	l := MustParseLabel("011")
	for _, c := range []struct{ format, want string }{
		{"%s", "011"}, {"%v", "011"}, {"%q", `"011"`}, {"%5s", "  011"},
	} {
		if got := fmt.Sprintf(c.format, l); got != c.want {
			t.Errorf("Sprintf(%q) = %s, want %s", c.format, got, c.want)
		}
	}
	if got := fmt.Sprint([]Label{MustParseLabel("10"), {}, MustParseLabel("1")}); got != "[10  1]" {
		t.Errorf("Sprint of a labeling = %s", got)
	}
	// Text encodings, JSON included, carry the bit string.
	b, err := json.Marshal(map[string][]Label{"labels": {MustParseLabel("10"), MustParseLabel("001")}})
	if err != nil || string(b) != `{"labels":["10","001"]}` {
		t.Fatalf("json = %s, %v", b, err)
	}
	var back []Label
	if err := json.Unmarshal([]byte(`["10","001",""]`), &back); err != nil || len(back) != 3 ||
		back[0] != MustParseLabel("10") || back[1] != MustParseLabel("001") || back[2] != (Label{}) {
		t.Fatalf("json decode = %v, %v", back, err)
	}
	if err := json.Unmarshal([]byte(`["2x"]`), &back); err == nil {
		t.Fatal("json decoded a non-bit label")
	}
}

// TestDistinctMatchesMap: Distinct counts what a map of the labels
// counts, on random labelings that mix labels of 0 to 31 bits, so both
// its bit set (at most 5 bits, and the 6-bit 000000) and its map serve.
func TestDistinctMatchesMap(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		maxBits := 1 + r.Intn(MaxLabelBits)
		labels := make([]Label, r.Intn(200))
		for i := range labels {
			l := r.Intn(maxBits + 1)
			labels[i] = Label{uint32(1<<l - 1 + r.Int63n(1<<l))}
		}
		seen := map[Label]bool{}
		for _, l := range labels {
			seen[l] = true
		}
		if got := Distinct(labels); got != len(seen) {
			t.Fatalf("trial %d: Distinct = %d, map counts %d", trial, got, len(seen))
		}
	}
}

func TestLabelHelpers(t *testing.T) {
	labels := []Label{MustParseLabel("10"), MustParseLabel("10"), MustParseLabel("01"), MustParseLabel("111")}
	if MaxLen(labels) != 3 {
		t.Fatalf("MaxLen = %d", MaxLen(labels))
	}
	if Distinct(labels) != 3 {
		t.Fatalf("Distinct = %d", Distinct(labels))
	}
	h := Histogram(labels)
	if h[MustParseLabel("10")] != 2 || h[MustParseLabel("01")] != 1 || h[MustParseLabel("111")] != 1 {
		t.Fatalf("Histogram = %v", h)
	}
	s := Strings(labels)
	if len(s) != 4 || s[0] != "10" || s[3] != "111" {
		t.Fatalf("Strings = %v", s)
	}
}
