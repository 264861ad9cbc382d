// Package wiretest cuts labeling blobs by hand for the tests of the
// codec and of the daemon, which must refuse what the encoder never
// writes.
package wiretest

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"slices"
	"testing"

	"radiobcast"
)

// StagelessBlob returns the wire bytes of l, a b or back labeling, with
// the stage flag cleared and the stage section dropped, under a
// recomputed checksum.
func StagelessBlob(t testing.TB, l *radiobcast.Labeling) []byte {
	t.Helper()
	blob, err := l.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	st := l.Stages
	section := append(binary.AppendUvarint(nil, uint64(st.L)), 0) // not restricted
	section = binary.AppendUvarint(section, uint64(st.Stalled))
	section = binary.AppendUvarint(section, uint64(st.NumStored()))
	for i := 1; i <= st.NumStored(); i++ {
		dom, nw := st.Lists(i)
		for _, list := range [][]int32{dom, nw} {
			section = binary.AppendUvarint(section, uint64(len(list)))
			for _, v := range list {
				section = binary.AppendUvarint(section, uint64(v))
			}
		}
	}
	body := blob[:len(blob)-crc32.Size]
	if st.Restricted || !bytes.HasSuffix(body, section) {
		t.Fatal("blob does not end with its stage section")
	}
	body = slices.Clone(body[:len(body)-len(section)])
	// The flags byte, then per label a length byte and its bits, then the
	// two delays, 0 each.
	flags := len(body) - 3
	for _, s := range l.Strings() {
		flags -= 1 + len(s)
	}
	if body[flags] != 0b101 { // labels and stages
		t.Fatalf("flags byte %#b, want labels and stages", body[flags])
	}
	body[flags] = 0b001
	return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}
