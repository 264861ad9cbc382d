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
	"math/bits"
)

// MaxLabelBits is the longest label a Label holds. Node ids are int32, so
// the round-robin baseline's ⌈log₂ n⌉-bit identifiers and every colour
// code fit.
const MaxLabelBits = 31

// Label is a binary-string node label, e.g. 10 for x1=1, x2=0. Labels
// assigned by a scheme need not be distinct; the length of a scheme is the
// maximum label length it assigns (§1.1).
//
// A Label is a 4-byte value: its bits sit below a leading 1 that marks
// the length, and the word is stored minus one, so the zero value is the
// empty label and every value spells exactly one bit string of at most
// MaxLabelBits bits. Build labels with MakeLabel or ParseLabel; String
// (and so %s, %v and %q) spells them as '0's and '1's.
type Label struct{ v uint32 }

// word returns the label's bits under their length sentinel.
func (l Label) word() uint32 { return l.v + 1 }

// MakeLabel builds a label from bits (true = '1'), most significant first.
// It panics on more than MaxLabelBits bits.
func MakeLabel(bits ...bool) Label {
	if len(bits) > MaxLabelBits {
		panic(fmt.Sprintf("core: %d-bit label exceeds the %d-bit limit", len(bits), MaxLabelBits))
	}
	w := uint32(1)
	for _, bit := range bits {
		w <<= 1
		if bit {
			w |= 1
		}
	}
	return Label{w - 1}
}

// ParseLabel returns the label spelled by s, which must consist solely of
// '0' and '1' and be at most MaxLabelBits long. It takes the bytes of a
// wire blob as they are, without a string copy.
func ParseLabel[T string | []byte](s T) (Label, error) {
	if len(s) > MaxLabelBits {
		return Label{}, fmt.Errorf("core: invalid label: %d bytes exceed the %d-bit limit", len(s), MaxLabelBits)
	}
	w := uint32(1)
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '0' && c != '1' {
			return Label{}, fmt.Errorf("core: invalid label: byte %d is %q, not a bit", i, c)
		}
		w = w<<1 | uint32(c-'0')
	}
	return Label{w - 1}, nil
}

// MustParseLabel is ParseLabel for labels known to be valid, such as
// literals; it panics on an invalid one.
func MustParseLabel(s string) Label {
	l, err := ParseLabel(s)
	if err != nil {
		panic(err)
	}
	return l
}

// Len returns the label length in bits.
func (l Label) Len() int { return bits.Len32(l.word()) - 1 }

// Bit returns bit i (0-based from the left), or false past the end. The
// paper's x1, x2, x3 are bits 0, 1, 2.
func (l Label) Bit(i int) bool {
	n := l.Len()
	return i >= 0 && i < n && l.word()>>(n-1-i)&1 == 1
}

// X1 reports the paper's first bit (membership in some DOM_i).
func (l Label) X1() bool { return l.Bit(0) }

// X2 reports the paper's second bit (designated "stay" sender).
func (l Label) X2() bool { return l.Bit(1) }

// X3 reports the paper's third bit (the acknowledgement initiator z).
func (l Label) X3() bool { return l.Bit(2) }

// AppendText appends the label's bits to b as '0' and '1' bytes. It
// implements encoding.TextAppender and never fails.
func (l Label) AppendText(b []byte) ([]byte, error) {
	w := l.word()
	for i := l.Len() - 1; i >= 0; i-- {
		b = append(b, '0'+byte(w>>i&1))
	}
	return b, nil
}

// String spells the label as '0's and '1's.
func (l Label) String() string {
	var buf [MaxLabelBits]byte
	b, _ := l.AppendText(buf[:0])
	return string(b)
}

// MarshalText implements encoding.TextMarshaler, so JSON and other text
// encodings carry a label as its bit string.
func (l Label) MarshalText() ([]byte, error) { return l.AppendText(nil) }

// UnmarshalText implements encoding.TextUnmarshaler with ParseLabel's
// rules.
func (l *Label) UnmarshalText(b []byte) error {
	var err error
	*l, err = ParseLabel(b)
	return err
}

// Strings converts a labeling to plain strings (for rendering and DOT).
func Strings(labels []Label) []string {
	out := make([]string, len(labels))
	for i, l := range labels {
		out[i] = l.String()
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
// these in §5: λack uses 5, λarb uses 6). A label of at most 5 bits sets
// its own bit of a word, so the λ schemes' labelings need no map.
func Distinct(labels []Label) int {
	var short uint64 // bit l.v for each label l with l.v < 64
	var long map[Label]struct{}
	for _, l := range labels {
		if l.v < 64 {
			short |= 1 << l.v
			continue
		}
		if long == nil {
			long = make(map[Label]struct{})
		}
		long[l] = struct{}{}
	}
	return bits.OnesCount64(short) + len(long)
}

// Histogram returns label → count.
func Histogram(labels []Label) map[Label]int {
	h := make(map[Label]int, 8)
	for _, l := range labels {
		h[l]++
	}
	return h
}
