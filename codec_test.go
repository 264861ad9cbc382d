// Tests for the labeling wire format: cross-process round-trips must be
// bit-identical for every registered scheme, the encoding is canonical,
// and corrupt or truncated blobs fail with errors — never panics.
package radiobcast_test

import (
	"bytes"
	"errors"
	"reflect"
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
}

func TestMarshalInvalidLabeling(t *testing.T) {
	if _, err := (&radiobcast.Labeling{}).MarshalBinary(); !errors.Is(err, radiobcast.ErrLabelingMismatch) {
		t.Fatalf("graphless labeling marshaled: %v", err)
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
