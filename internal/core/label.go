// Package core implements the paper's primary contribution: the stage
// construction of §2.1 (the INF/UNINF/FRONTIER/DOM/NEW sequences), the
// constant-length labeling schemes λ (2 bits, §2.2), λack (3 bits, §3.1)
// and λarb (3 bits, §4.1), and the universal deterministic broadcast
// algorithms B (Algorithm 1), Back (Algorithm 2) and Barb (§4.2), together
// with runtime checks of every fact and lemma the correctness proofs rely
// on, and the one-bit extensions sketched in the paper's conclusion.
package core

import (
	"fmt"
	"strings"
)

// Label is a binary-string node label, e.g. "10" for x1=1, x2=0. Labels
// assigned by a scheme need not be distinct; the length of a scheme is the
// maximum label length it assigns (§1.1).
type Label string

// ParseLabel returns the label spelled by b, which must consist solely of
// '0' and '1'. A label of up to 3 bits comes back as the constant
// MakeLabel returns for it, so parsing the labels of a λ-family labeling
// allocates nothing.
func ParseLabel(b []byte) (Label, error) {
	v := 0
	for i, c := range b {
		if c != '0' && c != '1' {
			return "", fmt.Errorf("core: invalid label: byte %d is %q, not a bit", i, c)
		}
		v = v<<1 | int(c-'0')
	}
	if len(b) < len(labelTable) {
		return labelTable[len(b)][v], nil
	}
	return Label(b), nil
}

// labelTable interns every label of up to 3 bits, indexed by length then
// by bit value (most significant first) — all the labels the paper's
// schemes assign. MakeLabel runs once per node per labeling and
// ParseLabel once per node per decode, so handing out interned constants
// instead of building strings removes an allocation from both.
var labelTable = [4][]Label{
	{""},
	{"0", "1"},
	{"00", "01", "10", "11"},
	{"000", "001", "010", "011", "100", "101", "110", "111"},
}

// MakeLabel builds a label from bits (true = '1'), most significant first.
func MakeLabel(bits ...bool) Label {
	if len(bits) < len(labelTable) {
		v := 0
		for _, bit := range bits {
			v <<= 1
			if bit {
				v |= 1
			}
		}
		return labelTable[len(bits)][v]
	}
	var b strings.Builder
	for _, bit := range bits {
		if bit {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return Label(b.String())
}

// Valid reports whether l consists solely of '0' and '1', the labels
// ParseLabel accepts.
func (l Label) Valid() bool {
	for i := 0; i < len(l); i++ {
		if l[i] != '0' && l[i] != '1' {
			return false
		}
	}
	return true
}

// Len returns the label length in bits.
func (l Label) Len() int { return len(l) }

// Bit returns bit i (0-based from the left), or false past the end. The
// paper's x1, x2, x3 are bits 0, 1, 2.
func (l Label) Bit(i int) bool {
	return i >= 0 && i < len(l) && l[i] == '1'
}

// X1 reports the paper's first bit (membership in some DOM_i).
func (l Label) X1() bool { return l.Bit(0) }

// X2 reports the paper's second bit (designated "stay" sender).
func (l Label) X2() bool { return l.Bit(1) }

// X3 reports the paper's third bit (the acknowledgement initiator z).
func (l Label) X3() bool { return l.Bit(2) }

// Strings converts a labeling to plain strings (for rendering and DOT).
func Strings(labels []Label) []string {
	out := make([]string, len(labels))
	for i, l := range labels {
		out[i] = string(l)
	}
	return out
}

// MaxLen returns the length of a labeling scheme: the maximum label length.
func MaxLen(labels []Label) int {
	m := 0
	for _, l := range labels {
		if l.Len() > m {
			m = l.Len()
		}
	}
	return m
}

// Distinct returns the number of distinct labels used (the paper counts
// these in §5: λack uses 5, λarb uses 6).
func Distinct(labels []Label) int {
	seen := make(map[Label]bool, 8)
	for _, l := range labels {
		seen[l] = true
	}
	return len(seen)
}

// Histogram returns label → count.
func Histogram(labels []Label) map[Label]int {
	h := make(map[Label]int, 8)
	for _, l := range labels {
		h[l]++
	}
	return h
}
