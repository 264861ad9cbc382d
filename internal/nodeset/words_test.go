package nodeset

import "testing"

func TestWordsRoundTrip(t *testing.T) {
	s := Of(130, 0, 63, 64, 100, 129)
	got := FromWords(130, s.words)
	if !got.Equal(s) {
		t.Fatalf("FromWords(words) = %v, want %v", got, s)
	}
}

func TestFromWordsDropsOutOfUniverseBits(t *testing.T) {
	// Bits at or above n must be trimmed, and missing words read as zero.
	got := FromWords(10, []uint64{^uint64(0)})
	if !got.Equal(Full(10)) {
		t.Fatalf("FromWords trim = %v, want %v", got, Full(10))
	}
	if !FromWords(100, []uint64{1}).Equal(Of(100, 0)) {
		t.Fatal("missing trailing words should read as zero")
	}
}

func TestOfInt32(t *testing.T) {
	got := OfInt32(70, []int32{3, 64, 69})
	if !got.Equal(Of(70, 3, 64, 69)) {
		t.Fatalf("OfInt32 = %v", got)
	}
	if !OfInt32(5, nil).Empty() {
		t.Fatal("OfInt32(nil) should be empty")
	}
}

func TestWordsLayout(t *testing.T) {
	s := Of(128, 65)
	if w := s.words; len(w) != 2 || w[0] != 0 || w[1] != 2 {
		t.Fatalf("words = %v, want [0 2]", w)
	}
}
