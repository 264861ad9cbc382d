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
	"fmt"
	"hash/crc32"
	"reflect"
	"slices"
	"strings"
	"testing"

	"radiobcast"
	"radiobcast/internal/graph"
	"radiobcast/internal/wiretest"
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
	"test-slot":   {"path", 12},
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
	if got.Scheme != "back" || got.Z() != l.Z() || got.Graph.N() != net.Graph.N() {
		t.Fatalf("round-trip mangled the labeling: %+v", got)
	}
}

// TestLabelingCodecChecksZR: z and r are written from the labels, and a
// blob whose z or r varint names another node than its labels do is
// outside input that contradicts itself, rejected with
// ErrLabelingMismatch even under a valid CRC.
func TestLabelingCodecChecksZR(t *testing.T) {
	net, err := radiobcast.Family("path", 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		scheme     string
		z, r       int // what the labels say
		forgeZ, fr int // what the forged blob says
	}{
		{"back", 15, -1, 3, -1},
		{"barb", 15, 0, 15, 5},
		{"barb", 15, 0, 4, 0},
		{"b", -1, -1, 3, -1},
	} {
		l, err := radiobcast.LabelNetwork(net, c.scheme)
		if err != nil {
			t.Fatal(err)
		}
		if l.Z() != c.z || l.R() != c.r {
			t.Fatalf("%s: labels give z=%d r=%d, want %d %d", c.scheme, l.Z(), l.R(), c.z, c.r)
		}
		var back radiobcast.Labeling
		if err := back.UnmarshalBinary(forgeZR(t, l, c.z, c.r)); err != nil || back.Z() != c.z || back.R() != c.r {
			t.Fatalf("%s: honest blob decodes to z=%d r=%d: %v", c.scheme, back.Z(), back.R(), err)
		}
		err = back.UnmarshalBinary(forgeZR(t, l, c.forgeZ, c.fr))
		if !errors.Is(err, radiobcast.ErrLabelingMismatch) {
			t.Fatalf("%s blob claiming z=%d r=%d decoded: %v", c.scheme, c.forgeZ, c.fr, err)
		}
	}
}

// forgeZR returns l's wire bytes with z and r written as given, and the
// checksum recomputed.
func forgeZR(t *testing.T, l *radiobcast.Labeling, z, r int) []byte {
	t.Helper()
	blob, err := l.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	head := binary.AppendUvarint([]byte("RBL1"), uint64(len(l.Scheme)))
	head = binary.AppendVarint(append(head, l.Scheme...), int64(l.Source))
	written := binary.AppendVarint(binary.AppendVarint(slices.Clone(head), int64(l.Z())), int64(l.R()))
	if !bytes.HasPrefix(blob, written) {
		t.Fatal("blob does not start with its scheme, source, z and r")
	}
	body := binary.AppendVarint(binary.AppendVarint(head, int64(z)), int64(r))
	body = append(body, blob[len(written):len(blob)-crc32.Size]...)
	return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
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

// TestLabelingCodecRefusesStagelessLambda: Verify checks a b or back run
// against its labeling's stage lists, so neither direction of the codec
// takes such a labeling without them: MarshalBinary refuses it, and a
// blob cut down to one decodes to ErrLabelingMismatch.
func TestLabelingCodecRefusesStagelessLambda(t *testing.T) {
	net, err := radiobcast.Family("path", 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []string{"b", "back"} {
		l, err := radiobcast.LabelNetwork(net, scheme)
		if err != nil {
			t.Fatal(err)
		}
		if err := new(radiobcast.Labeling).UnmarshalBinary(wiretest.StagelessBlob(t, l)); !errors.Is(err, radiobcast.ErrLabelingMismatch) {
			t.Fatalf("%s: stage-less blob decoded: %v", scheme, err)
		}
		l.Stages = nil
		if _, err := l.MarshalBinary(); !errors.Is(err, radiobcast.ErrLabelingMismatch) {
			t.Fatalf("%s: stage-less labeling marshaled: %v", scheme, err)
		}
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
		if testOnly(scheme) {
			continue
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

// FuzzLabelingCodec: decoding arbitrary bytes must never panic, must
// accept and reject as oracleGraph does (checkDecodeMatchesOracle: the
// same error text, or the oracle's CSR and fingerprint), and any blob
// that decodes must re-encode canonically (decode → encode → decode is a
// fixed point). The known-graph path the Session takes on a store
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
		if checkDecodeMatchesOracle(t, data) != nil {
			return // rejected as the oracle rejects it, and did not panic: fine
		}
		l := new(radiobcast.Labeling)
		if err := l.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
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

// oracleGraph is the graph half of the decoder as it was before graphs
// were decoded straight into their CSR: the header is read with
// binary.Uvarint alone, the edges go into a graph.New one AddEdge at a
// time, Freeze dedups them, and a BFS checks connectivity. It returns
// the graph and the byte span of the edge list in data, or the error the
// decoder returns for a blob it rejects by the end of the edge list.
func oracleGraph(data []byte) (g *graph.Graph, span [2]int, err error) {
	if len(data) < len("RBL1")+4 {
		return nil, span, fmt.Errorf("radiobcast: labeling codec: %d-byte input too short", len(data))
	}
	if string(data[:4]) != "RBL1" {
		return nil, span, fmt.Errorf("radiobcast: labeling codec: bad magic %q (want %q)", data[:4], "RBL1")
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, span, fmt.Errorf("radiobcast: labeling codec: checksum mismatch (corrupt input)")
	}
	d := &oracleDecoder{buf: body[4:]}
	k, err := d.count("scheme name", 1)
	if err != nil {
		return nil, span, err
	}
	d.buf = d.buf[k:]
	for _, what := range []string{"source", "z", "r"} {
		if _, err := d.varint(what); err != nil {
			return nil, span, err
		}
	}
	n, err := d.count("node count", 1)
	if err != nil {
		return nil, span, err
	}
	m, err := d.count("edge count", 2)
	if err != nil {
		return nil, span, err
	}
	if n > m+1 {
		return nil, span, fmt.Errorf("radiobcast: labeling codec: %d nodes with %d edges cannot be connected", n, m)
	}
	span[0] = len(body) - len(d.buf)
	g = graph.New(n)
	for i := 0; i < m; i++ {
		u, err := d.varuint("edge endpoint")
		if err != nil {
			return nil, span, err
		}
		v, err := d.varuint("edge endpoint")
		if err != nil {
			return nil, span, err
		}
		if u >= n || v >= n || u == v {
			return nil, span, fmt.Errorf("radiobcast: labeling codec: bad edge {%d,%d} in %d-node graph", u, v, n)
		}
		g.AddEdge(u, v)
	}
	if g.M() != m {
		return nil, span, fmt.Errorf("radiobcast: labeling codec: duplicate edges (%d listed, %d distinct)", m, g.M())
	}
	if n > 0 && slices.Contains(g.BFS(0), -1) {
		return nil, span, fmt.Errorf("radiobcast: labeling codec: graph is not connected")
	}
	span[1] = len(body) - len(d.buf)
	return g, span, nil
}

// oracleDecoder is the decoder's reader as it was before its short-uvarint
// path: every integer goes through binary.Uvarint or binary.Varint.
type oracleDecoder struct{ buf []byte }

func (d *oracleDecoder) varuint(what string) (int, error) {
	v, k := binary.Uvarint(d.buf)
	if k <= 0 {
		return 0, fmt.Errorf("radiobcast: labeling codec: truncated or malformed uvarint at %s", what)
	}
	if v >= 1<<31 {
		return 0, fmt.Errorf("radiobcast: labeling codec: %s %d implausibly large", what, v)
	}
	d.buf = d.buf[k:]
	return int(v), nil
}

func (d *oracleDecoder) varint(what string) (int, error) {
	v, k := binary.Varint(d.buf)
	if k <= 0 {
		return 0, fmt.Errorf("radiobcast: labeling codec: truncated or malformed varint at %s", what)
	}
	d.buf = d.buf[k:]
	if v >= 1<<31 || v < -(1<<31) {
		return 0, fmt.Errorf("radiobcast: labeling codec: %s %d implausibly large", what, v)
	}
	return int(v), nil
}

func (d *oracleDecoder) count(what string, minBytesPer int) (int, error) {
	v, err := d.varuint(what)
	if err != nil {
		return 0, err
	}
	if v*minBytesPer > len(d.buf) {
		return 0, fmt.Errorf("radiobcast: labeling codec: %s %d exceeds remaining input", what, v)
	}
	return v, nil
}

// withEdges returns data with the edge list in span replaced by edges,
// written as MarshalBinary writes them, and the checksum recomputed.
func withEdges(data []byte, span [2]int, edges [][2]int) []byte {
	out := append([]byte(nil), data[:span[0]]...)
	for _, e := range edges {
		out = binary.AppendUvarint(out, uint64(e[0]))
		out = binary.AppendUvarint(out, uint64(e[1]))
	}
	out = append(out, data[span[1]:len(data)-crc32.Size]...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// checkDecodeMatchesOracle requires UnmarshalBinary to decide data as
// oracleGraph and the parts of the decoder the graph does not touch do,
// and returns UnmarshalBinary's error. Where the oracle rejects the blob
// by the end of its edge list, the decoder must reject it with the same
// error text. Where the oracle builds the graph, the rest of the blob is
// decided by DecodeOnto of the blob with its edges rewritten in
// canonical order onto that graph, which reads the rest as
// UnmarshalBinary does: the two must agree, and a labeling that decodes
// must carry the oracle's CSR arrays and fingerprint.
func checkDecodeMatchesOracle(t *testing.T, data []byte) error {
	t.Helper()
	want, span, oerr := oracleGraph(data)
	l := new(radiobcast.Labeling)
	err := l.UnmarshalBinary(data)
	if oerr != nil {
		if err == nil || err.Error() != oerr.Error() {
			t.Fatalf("decode returned %v where the oracle rejects the graph: %v", err, oerr)
		}
		return err
	}
	rest := new(radiobcast.Labeling).DecodeOnto(withEdges(data, span, want.Edges()), want)
	if (err == nil) != (rest == nil) || err != nil && err.Error() != rest.Error() {
		t.Fatalf("decode returned %v past the oracle's graph, which decides %v", err, rest)
	}
	if err != nil {
		return err
	}
	got, exp := l.Graph.Freeze(), want.Freeze()
	if !slices.Equal(got.Offsets, exp.Offsets) || !slices.Equal(got.Targets, exp.Targets) {
		t.Fatal("decoded CSR differs from the oracle's")
	}
	if l.Graph.Fingerprint() != want.Fingerprint() {
		t.Fatal("decoded fingerprint differs from the oracle's")
	}
	return nil
}

// TestDecodeMatchesOracle decodes every registered scheme's labelings of
// path, grid, gnp-sparse and btree at n = 64 and 1024, as marshaled and
// with their edge lists rewritten: listed backwards, with each edge's
// endpoints swapped (both decode to the same graph), and with a
// duplicate edge, an endpoint out of range, a self-loop, or node 0 cut
// off (each rejected). checkDecodeMatchesOracle holds the decoder to the
// oracle on every blob, accept or reject and error text alike. A cell
// with no labeling is skipped with the reason.
func TestDecodeMatchesOracle(t *testing.T) {
	// onebit's search finds no labeling on these cells and takes seconds
	// to give up, because nothing bounds it yet (ROADMAP's first item).
	slowNoLabeling := map[string]bool{"onebit/grid/n=1024": true, "onebit/gnp-sparse/n=1024": true}
	for _, scheme := range radiobcast.SchemeNames() {
		if scheme == "hook-b" {
			continue // test-only instrumentation scheme
		}
		for _, fam := range []string{"path", "grid", "gnp-sparse", "btree"} {
			for _, n := range []int{64, 1024} {
				cell := fmt.Sprintf("%s/%s/n=%d", scheme, fam, n)
				t.Run(cell, func(t *testing.T) {
					if slowNoLabeling[cell] {
						t.Skip("no labeling, found slowly")
					}
					net, err := radiobcast.Family(fam, n)
					if err != nil {
						t.Fatal(err)
					}
					l, err := radiobcast.LabelNetwork(net, scheme)
					if errors.Is(err, radiobcast.ErrNoLabeling) {
						t.Skipf("no labeling: %v", err)
					}
					if err != nil {
						t.Fatal(err)
					}
					blob, err := l.MarshalBinary()
					if err != nil {
						t.Fatal(err)
					}
					checkEdgeVariants(t, blob)
				})
			}
		}
	}
}

// checkEdgeVariants runs checkDecodeMatchesOracle on blob and on copies
// whose edge lists are rewritten, and requires the rewrites that keep the
// graph to decode and the others to fail.
func checkEdgeVariants(t *testing.T, blob []byte) {
	t.Helper()
	g, span, err := oracleGraph(blob)
	if err != nil {
		t.Fatal(err)
	}
	n, edges := g.N(), g.Edges()
	rewrite := func(f func(e [][2]int)) []byte {
		e := slices.Clone(edges)
		f(e)
		return withEdges(blob, span, e)
	}
	// isolate replaces every edge at node 0 with a distinct non-edge
	// among the other nodes, keeping the edge count.
	isolate := func(e [][2]int) {
		next := [2]int{1, 1}
		for i := range e {
			if e[i][0] != 0 {
				continue
			}
			for {
				if next[1]++; next[1] == n {
					next = [2]int{next[0] + 1, next[0] + 2}
				}
				if !g.HasEdge(next[0], next[1]) {
					break
				}
			}
			e[i] = next
		}
	}
	for _, c := range []struct {
		name   string
		blob   []byte
		accept bool
	}{
		{"as marshaled", blob, true},
		{"edges backwards", rewrite(slices.Reverse[[][2]int]), true},
		{"endpoints swapped", rewrite(func(e [][2]int) {
			for i := range e {
				e[i] = [2]int{e[i][1], e[i][0]}
			}
		}), true},
		{"duplicate edge", rewrite(func(e [][2]int) { e[len(e)-1] = e[0] }), false},
		{"endpoint out of range", rewrite(func(e [][2]int) { e[0][1] = n }), false},
		{"self-loop", rewrite(func(e [][2]int) { e[0][1] = e[0][0] }), false},
		{"node 0 cut off", rewrite(isolate), false},
	} {
		if err := checkDecodeMatchesOracle(t, c.blob); (err == nil) != c.accept {
			t.Errorf("%s: decode returned %v", c.name, err)
		}
	}
}
