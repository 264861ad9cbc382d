// Tests for the labeling wire format: cross-process round-trips must be
// bit-identical for every registered scheme, the encoding is canonical,
// and corrupt or truncated blobs fail with errors — never panics.
package radiobcast_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"

	"radiobcast"
	"radiobcast/internal/graph"
)

// codecMatrix pairs every registered scheme with a family it labels.
var codecMatrix = map[string]struct {
	family string
	n      int
}{
	"b":           {"grid", 16},
	"back":        {"grid", 16},
	"barb":        {"cycle", 9},
	"roundrobin":  {"path", 12},
	"colorrobin":  {"grid", 16},
	"centralized": {"grid", 16},
	"flooding":    {"star", 9},
	"onebit":      {"path", 8},
	"gjp":         {"grid", 16},
}

// TestLabelingCodecRoundTripAllSchemes pins the acceptance criterion: a
// labeling marshaled in one process and unmarshaled in another produces a
// bit-identical Outcome for the same options, for every registered
// scheme, and still passes Verify.
func TestLabelingCodecRoundTripAllSchemes(t *testing.T) {
	for _, scheme := range radiobcast.SchemeNames() {
		pick, ok := codecMatrix[scheme]
		if !ok {
			if scheme == "hook-b" {
				continue // test-only instrumentation scheme
			}
			t.Fatalf("scheme %q missing from the codec matrix — add it", scheme)
		}
		t.Run(scheme, func(t *testing.T) {
			net, err := radiobcast.Family(pick.family, pick.n)
			if err != nil {
				t.Fatal(err)
			}
			l, err := radiobcast.LabelNetwork(net, scheme)
			if err != nil {
				t.Fatal(err)
			}
			blob, err := l.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}

			// "Another process": decode from bytes only — no shared
			// graph, stages or scheme structure.
			shipped := new(radiobcast.Labeling)
			if err := shipped.UnmarshalBinary(blob); err != nil {
				t.Fatal(err)
			}
			if shipped.Graph == l.Graph {
				t.Fatal("decoded labeling aliases the original graph")
			}
			if shipped.Graph.Fingerprint() != l.Graph.Fingerprint() {
				t.Fatal("decoded graph differs structurally")
			}

			want, err := radiobcast.RunLabeled(l, radiobcast.WithMessage("m"))
			if err != nil {
				t.Fatal(err)
			}
			got, err := radiobcast.RunLabeled(shipped, radiobcast.WithMessage("m"))
			if err != nil {
				t.Fatal(err)
			}
			if !sameResults(want.Result, got.Result) {
				t.Fatal("shipped labeling diverged from the original run")
			}
			for name, pair := range map[string][2]any{
				"InformedRound":      {want.InformedRound, got.InformedRound},
				"AllInformed":        {want.AllInformed, got.AllInformed},
				"CompletionRound":    {want.CompletionRound, got.CompletionRound},
				"AckRound":           {want.AckRound, got.AckRound},
				"KnowsCompleteRound": {want.KnowsCompleteRound, got.KnowsCompleteRound},
				"TotalRounds":        {want.TotalRounds, got.TotalRounds},
				"T":                  {want.T, got.T},
			} {
				if !reflect.DeepEqual(pair[0], pair[1]) {
					t.Fatalf("%s differs: %v vs %v", name, pair[0], pair[1])
				}
			}
			if err := radiobcast.Verify(got); err != nil {
				t.Fatalf("shipped labeling fails Verify: %v", err)
			}

			// Canonical encoding: re-marshaling the decoded labeling
			// reproduces the exact bytes.
			blob2, err := shipped.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(blob, blob2) {
				t.Fatal("re-encoding is not byte-identical")
			}
		})
	}
}

// TestLabelingCodecWriteRead covers the io.Writer/Reader transport pair.
func TestLabelingCodecWriteRead(t *testing.T) {
	net := figNet(t)
	l, err := radiobcast.LabelNetwork(net, "back")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := radiobcast.WriteLabeling(&buf, l); err != nil {
		t.Fatal(err)
	}
	got, err := radiobcast.ReadLabeling(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Scheme != "back" || got.Z != l.Z || got.Graph.N() != net.Graph.N() {
		t.Fatalf("round-trip mangled the labeling: %+v", got)
	}
}

func TestLabelingCodecRejectsTruncation(t *testing.T) {
	net := figNet(t)
	l, err := radiobcast.LabelNetwork(net, "back")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := l.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(blob); i++ {
		if err := new(radiobcast.Labeling).UnmarshalBinary(blob[:i]); err == nil {
			t.Fatalf("truncation to %d/%d bytes accepted", i, len(blob))
		}
	}
}

func TestLabelingCodecRejectsCorruption(t *testing.T) {
	net := figNet(t)
	l, err := radiobcast.LabelNetwork(net, "b")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := l.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// The trailing CRC32 detects every single-byte corruption.
	for i := range blob {
		bad := bytes.Clone(blob)
		bad[i] ^= 0x5a
		if err := new(radiobcast.Labeling).UnmarshalBinary(bad); err == nil {
			t.Fatalf("flipped byte %d accepted", i)
		}
	}

	// A label that is not a bit string, or is longer than a Label holds,
	// is refused even under a valid CRC.
	bad := forgeLabel(t, "2x")
	if err := new(radiobcast.Labeling).UnmarshalBinary(bad); err == nil || !strings.Contains(err.Error(), "not a bit") {
		t.Fatalf("label \"2x\" decoded: %v", err)
	}
	bad = forgeLabel(t, strings.Repeat("1", 32))
	if err := new(radiobcast.Labeling).UnmarshalBinary(bad); err == nil || !strings.Contains(err.Error(), "31-bit limit") {
		t.Fatalf("32-bit label decoded: %v", err)
	}
	// A 31-bit label is the longest that decodes.
	var back radiobcast.Labeling
	if err := back.UnmarshalBinary(forgeLabel(t, strings.Repeat("01", 15)+"1")); err != nil {
		t.Fatalf("31-bit label refused: %v", err)
	}
	if got := back.Labels[3].String(); got != strings.Repeat("01", 15)+"1" {
		t.Fatalf("31-bit label decoded as %s", got)
	}
}

// forgeLabel returns the wire bytes of a b labeling of path/8 whose node 3
// carries label, built by hand with a valid CRC — no Label value spells a
// label the decoder refuses, so MarshalBinary cannot write one.
func forgeLabel(t *testing.T, label string) []byte {
	t.Helper()
	net, err := radiobcast.Family("path", 8)
	if err != nil {
		t.Fatal(err)
	}
	l, err := radiobcast.LabelNetwork(net, "b")
	if err != nil {
		t.Fatal(err)
	}
	const marker = "1111111111" // a 10-bit label no scheme assigns
	l.Labels[3] = radiobcast.MustParseLabel(marker)
	blob, err := l.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	body := blob[:len(blob)-crc32.Size]
	old := append([]byte{byte(len(marker))}, marker...)
	if bytes.Count(body, old) != 1 {
		t.Fatal("marker label not found exactly once")
	}
	body = bytes.Replace(body, old, append([]byte{byte(len(label))}, label...), 1)
	return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

func TestMarshalInvalidLabeling(t *testing.T) {
	if _, err := (&radiobcast.Labeling{}).MarshalBinary(); !errors.Is(err, radiobcast.ErrLabelingMismatch) {
		t.Fatalf("graphless labeling marshaled: %v", err)
	}
	net, err := radiobcast.Family("path", 8)
	if err != nil {
		t.Fatal(err)
	}
	l, err := radiobcast.LabelNetwork(net, "b")
	if err != nil {
		t.Fatal(err)
	}
	l.Labels = l.Labels[:7]
	if _, err := l.MarshalBinary(); !errors.Is(err, radiobcast.ErrLabelingMismatch) {
		t.Fatalf("7 labels for 8 nodes marshaled: %v", err)
	}
}

// goldenFamilies is the fixed family matrix of TestLabelingWireBytesGolden:
// every registered scheme labels each of these at n = 64.
var goldenFamilies = []string{"path", "cycle", "grid", "btree", "gnp-sparse", "complete"}

// wireGolden is, per scheme, the SHA-256 of its MarshalBinary outputs over
// goldenFamilies at n = 64, concatenated in that order.
var wireGolden = map[string]string{
	"b":           "df62eca97a8169deac5c7d735d226c8aec073862a38d2099e2ba36ad089419ef",
	"back":        "efc9f260f1236002920aa28a6dc06564d8aae484284c4caf440265eadae613ca",
	"barb":        "715756a842c19879f5f13a659aa3b547a642646aa17cf108d6be4aee7d3a7c21",
	"centralized": "05880ad74389926fbf6be1a51b4d656154feaf210895bc8145437d9d91a0c5fa",
	"colorrobin":  "363159d69470b29c42cb127ccfb693671c815f9091b55b02eaa389d7c5de95a9",
	"flooding":    "007f4f1210bf15a1ec25f1c3f63354d145ee9e4dd19f5126a1b5671d55bdca96",
	"gjp":         "11a7981b020250ce6abf75c66d6b1a38d975e382c553baa3b94633c6c5dadfed",
	"onebit":      "91e328894e4d1a9d67c584bcdf3f205904b8714f2a2f57d6b4bdabc9184824fb",
	"roundrobin":  "62021178314df77fa5f95003702cf9d7109c7c7c1d09f46534ca5ee356b22c48",
}

// TestLabelingWireBytesGolden pins the wire bytes. The store addresses
// every blob by the SHA-256 of MarshalBinary's output, so an encoder
// change that moves a single byte orphans every stored labeling; it has
// to fail here first.
func TestLabelingWireBytesGolden(t *testing.T) {
	for _, scheme := range radiobcast.SchemeNames() {
		if scheme == "hook-b" {
			continue // test-only instrumentation scheme
		}
		want, ok := wireGolden[scheme]
		if !ok {
			t.Errorf("scheme %q has no golden wire hash — add it", scheme)
		}
		h := sha256.New()
		for _, fam := range goldenFamilies {
			net, err := radiobcast.Family(fam, 64)
			if err != nil {
				t.Fatal(err)
			}
			l, err := radiobcast.LabelNetwork(net, scheme)
			if err != nil {
				t.Fatalf("%s on %s/64: %v", scheme, fam, err)
			}
			blob, err := l.MarshalBinary()
			if err != nil {
				t.Fatalf("%s on %s/64: %v", scheme, fam, err)
			}
			h.Write(blob)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("%s: wire bytes hash to %s, want %s", scheme, got, want)
		}
	}
}

// TestCodecAllocsConstant is the codec's allocation contract: decoding a
// λ-family blob, onto its graph (a store hit) or into a graph of its own,
// and marshaling the labeling make as many allocations on path/4096 as on
// path/256 — none per node, edge, label or stage.
func TestCodecAllocsConstant(t *testing.T) {
	cells := []struct {
		family string
		n      int
	}{{"path", 256}, {"path", 1024}, {"path", 4096}, {"grid", 1024}}
	for _, scheme := range []string{"b", "back"} {
		var want [3]float64
		for i, c := range cells {
			net, err := radiobcast.Family(c.family, c.n)
			if err != nil {
				t.Fatal(err)
			}
			l, err := radiobcast.LabelNetwork(net, scheme)
			if err != nil {
				t.Fatal(err)
			}
			blob, err := l.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			got := [3]float64{
				testing.AllocsPerRun(10, func() {
					if err := new(radiobcast.Labeling).DecodeOnto(blob, net.Graph); err != nil {
						t.Fatal(err)
					}
				}),
				testing.AllocsPerRun(10, func() {
					if err := new(radiobcast.Labeling).UnmarshalBinary(blob); err != nil {
						t.Fatal(err)
					}
				}),
				testing.AllocsPerRun(10, func() {
					if _, err := l.MarshalBinary(); err != nil {
						t.Fatal(err)
					}
				}),
			}
			if i == 0 {
				want = got
			}
			if got != want {
				t.Errorf("%s on %s/%d: decode-onto, unmarshal, marshal make %v allocs; on %s/%d %v",
					scheme, c.family, c.n, got, cells[0].family, cells[0].n, want)
			}
		}
	}
}

// FuzzLabelingCodec: decoding arbitrary bytes must never panic, and any
// blob that decodes must re-encode canonically (decode → encode → decode
// is a fixed point). The known-graph path the Session takes on a store
// hit is held to the same standard: decoding onto the graph the first
// decode built reproduces the canonical bytes, and decoding onto a
// different graph is an error, never a panic.
func FuzzLabelingCodec(f *testing.F) {
	for _, scheme := range []string{"b", "back", "barb", "centralized", "flooding"} {
		net, err := radiobcast.Family(codecMatrix[scheme].family, codecMatrix[scheme].n)
		if err != nil {
			f.Fatal(err)
		}
		l, err := radiobcast.LabelNetwork(net, scheme)
		if err != nil {
			f.Fatal(err)
		}
		blob, err := l.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Add([]byte("RBL1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		l := new(radiobcast.Labeling)
		if err := l.UnmarshalBinary(data); err != nil {
			return // rejected, and did not panic: fine
		}
		for v, lab := range l.Labels {
			if back, err := radiobcast.ParseLabel(lab.String()); err != nil || back != lab {
				t.Fatalf("decoded label %q of node %d does not re-parse: %v", lab, v, err)
			}
		}
		blob, err := l.MarshalBinary()
		if err != nil {
			t.Fatalf("decoded labeling fails to re-encode: %v", err)
		}
		l2 := new(radiobcast.Labeling)
		if err := l2.UnmarshalBinary(blob); err != nil {
			t.Fatalf("re-encoded labeling fails to decode: %v", err)
		}
		blob2, err := l2.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob, blob2) {
			t.Fatal("encoding is not canonical under round-trip")
		}

		onto := new(radiobcast.Labeling)
		if err := onto.DecodeOnto(blob, l.Graph); err != nil {
			t.Fatalf("canonical blob fails to decode onto its own graph: %v", err)
		}
		if onto.Graph != l.Graph {
			t.Fatal("known-graph decode built its own graph")
		}
		if got, err := onto.MarshalBinary(); err != nil || !bytes.Equal(got, blob) {
			t.Fatalf("known-graph decode re-encodes differently (err=%v)", err)
		}
		// The raw input may list its edges out of canonical order, which
		// the known-graph path rejects; when it is accepted, it must
		// agree with the plain decode.
		onto = new(radiobcast.Labeling)
		if err := onto.DecodeOnto(data, l.Graph); err == nil {
			if got, err := onto.MarshalBinary(); err != nil || !bytes.Equal(got, blob) {
				t.Fatalf("known-graph decode of the input re-encodes differently (err=%v)", err)
			}
		} else if bytes.Equal(data, blob) {
			t.Fatalf("canonical input rejected on its own graph: %v", err)
		}

		n := l.Graph.N()
		if n < 3 {
			return // one connected graph per node count: nothing mismatches
		}
		other := graph.Path(n)
		if other.Fingerprint() == l.Graph.Fingerprint() {
			other = graph.Star(n)
		}
		if err := new(radiobcast.Labeling).DecodeOnto(blob, other); err == nil {
			t.Fatal("blob decoded onto a different graph")
		}
	})
}
