package radiobcast

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"

	"radiobcast/internal/baseline"
	"radiobcast/internal/core"
	"radiobcast/internal/graph"
)

// The labeling wire format, version 1. A labeling is the paper's durable
// artifact — computed once by the central monitor, then shipped to
// wherever broadcasts run — so it serializes as a self-contained,
// versioned, byte-order-independent blob:
//
//	"RBL1"            magic + version
//	scheme            uvarint length + bytes
//	source, z, r      varints: Source (the anchor), Z(), R()
//	graph             n, m uvarints, then m edge pairs (u, v) as uvarints
//	flags             bit0 labels, bit1 schedule, bit2 stages
//	labels            n × (uvarint length + bytes), when present
//	delays            2 varints (flooding-family forwarding delays)
//	schedule          rounds, then per round: count + node uvarints
//	stages            ℓ, restricted, stalled, stored count, then per
//	                  stage the DOM and NEW node lists
//	crc32             IEEE checksum of everything above, little-endian
//
// All integers are varint-encoded; everything a Run or Verify needs
// travels in the blob (the λ-family stage structure is rebuilt from its
// DOM/NEW lists via the §2.1 recurrence). z and r are derived from the
// labels, and a blob whose z or r disagrees with its labels is rejected
// (ErrLabelingMismatch), as is a b or back labeling without its stage
// lists, in both directions: Verify checks those runs against them.
// Decoding is defensive: every
// count is bounded by the remaining input before anything is allocated,
// every label must be a bit string of at most 31 bits (the longest a
// Label holds), and corrupt or truncated blobs return errors, never
// panics. Both directions are one pass, and for a λ-family labeling
// neither allocates more as n or ℓ grows: labels decode into 4-byte
// values, the DOM/NEW lists share one backing array, and the encoder
// reads the CSR rows and the stored lists in place into a buffer it
// sizes once.
const (
	labelingMagic   = "RBL1"
	flagHasLabels   = 1 << 0
	flagHasSchedule = 1 << 1
	flagHasStages   = 1 << 2
)

// LabelingContentType is the MIME media type of the labeling wire format
// — the Content-Type under which labelings travel over HTTP (the daemon's
// /v1/label responses and /v1/run-labeled request bodies). The ".v1"
// suffix tracks the format's magic: a future "RBL2" format gets a new
// media type, so proxies and clients can route on the header alone.
const LabelingContentType = "application/vnd.radiobcast.labeling.v1"

// MarshalBinary encodes the labeling in the versioned wire format. It
// implements encoding.BinaryMarshaler. The encoding is canonical: equal
// labelings marshal to identical bytes, so blobs can be content-addressed.
// Every Label is a bit string of at most 31 bits, which the decoder
// accepts, so no blob is written that the decoder would refuse.
func (l *Labeling) MarshalBinary() ([]byte, error) {
	if l == nil || l.Graph == nil {
		return nil, labelingMismatch("cannot marshal a labeling without a graph")
	}
	if l.Stages == nil && stagesRequired(l.Scheme) {
		return nil, labelingMismatch("cannot marshal a %s labeling without its stages", l.Scheme)
	}
	csr := l.Graph.Freeze()
	n := csr.N()
	if l.Labels != nil && len(l.Labels) != n {
		return nil, labelingMismatch("%d labels for %d nodes", len(l.Labels), n)
	}
	// Every count and node id outside the labels is at most n, so it
	// takes at most w bytes, and at most twelve varints (scheme length,
	// source, Z, R, n, m, two delays, schedule rounds, ℓ, stalled, stored
	// stages) are wider. Sized from that bound, the buffer never grows.
	w := uvarintLen(uint64(n))
	size := len(labelingMagic) + len(l.Scheme) + 12*binary.MaxVarintLen64 + 2 + crc32.Size + 2*w*csr.M()
	for _, lab := range l.Labels {
		size += 1 + lab.Len() // a length of at most 31 is a one-byte uvarint
	}
	for _, round := range l.Schedule {
		size += w * (1 + len(round))
	}
	if st := l.Stages; st != nil {
		for i := 1; i <= st.NumStored(); i++ {
			dom, nw := st.Lists(i)
			size += w * (2 + len(dom) + len(nw))
		}
	}

	buf := append(make([]byte, 0, size), labelingMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(l.Scheme)))
	buf = append(buf, l.Scheme...)
	buf = binary.AppendVarint(buf, int64(l.Source))
	buf = binary.AppendVarint(buf, int64(l.Z()))
	buf = binary.AppendVarint(buf, int64(l.R()))

	// The edges {u, v}, u < v, in lexicographic order: each CSR row is
	// ascending, so its entries above u are u's edges in order.
	buf = binary.AppendUvarint(buf, uint64(n))
	buf = binary.AppendUvarint(buf, uint64(csr.M()))
	for u := 0; u < n; u++ {
		for _, v := range csr.Neighbors(u) {
			if int(v) > u {
				buf = binary.AppendUvarint(buf, uint64(u))
				buf = binary.AppendUvarint(buf, uint64(v))
			}
		}
	}

	var flags byte
	if l.Labels != nil {
		flags |= flagHasLabels
	}
	if l.Schedule != nil {
		flags |= flagHasSchedule
	}
	if l.Stages != nil {
		flags |= flagHasStages
	}
	buf = append(buf, flags)

	for _, lab := range l.Labels {
		buf = binary.AppendUvarint(buf, uint64(lab.Len()))
		buf, _ = lab.AppendText(buf)
	}
	buf = binary.AppendVarint(buf, int64(l.Delays.DelayOne))
	buf = binary.AppendVarint(buf, int64(l.Delays.DelayZero))
	if l.Schedule != nil {
		buf = binary.AppendUvarint(buf, uint64(len(l.Schedule)))
		for _, round := range l.Schedule {
			buf = appendNodes(buf, round)
		}
	}
	if st := l.Stages; st != nil {
		buf = binary.AppendUvarint(buf, uint64(st.L))
		restricted := byte(0)
		if st.Restricted {
			restricted = 1
		}
		buf = append(buf, restricted)
		buf = binary.AppendUvarint(buf, uint64(st.Stalled))
		buf = binary.AppendUvarint(buf, uint64(st.NumStored()))
		for i := 1; i <= st.NumStored(); i++ {
			dom, nw := st.Lists(i)
			buf = appendNodes(buf, dom)
			buf = appendNodes(buf, nw)
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return buf, nil
}

// stagesRequired reports whether a labeling of the scheme must carry its
// §2.1 stage lists: Verify checks b's and back's runs against them
// (Lemma 2.8), so without them such a labeling runs but never verifies.
func stagesRequired(scheme string) bool { return scheme == "b" || scheme == "back" }

// appendNodes appends a node list: its length, then the nodes.
func appendNodes[T int | int32](buf []byte, list []T) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(list)))
	for _, v := range list {
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	return buf
}

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// UnmarshalBinary decodes a labeling previously produced by MarshalBinary,
// reconstructing the graph and (for λ-family schemes) the stage structure,
// so the result runs and verifies exactly like the original. It implements
// encoding.BinaryUnmarshaler. Corrupt, truncated or self-contradictory
// input returns an error.
func (l *Labeling) UnmarshalBinary(data []byte) error { return l.decode(data, nil) }

// decode is UnmarshalBinary with an optional known graph. With known nil
// it builds the blob's graph. With known non-nil no graph is built: the
// blob's edge list must be exactly known's canonical one (the order
// MarshalBinary writes), checked edge by edge against known's CSR — a
// stricter test than comparing fingerprints — and the labeling and its
// stages then refer to known itself. The Session decodes store hits onto
// the request's graph this way, so every cached labeling of one topology
// shares one graph.
func (l *Labeling) decode(data []byte, known *Graph) error {
	if len(data) < len(labelingMagic)+4 {
		return fmt.Errorf("radiobcast: labeling codec: %d-byte input too short", len(data))
	}
	if string(data[:len(labelingMagic)]) != labelingMagic {
		return fmt.Errorf("radiobcast: labeling codec: bad magic %q (want %q)", data[:len(labelingMagic)], labelingMagic)
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(body); got != sum {
		return fmt.Errorf("radiobcast: labeling codec: checksum mismatch (corrupt input)")
	}
	d := &decoder{buf: body[len(labelingMagic):]}

	scheme, err := d.bytes("scheme name")
	if err != nil {
		return err
	}
	source, err := d.varint("source")
	if err != nil {
		return err
	}
	z, err := d.varint("z")
	if err != nil {
		return err
	}
	r, err := d.varint("r")
	if err != nil {
		return err
	}

	n, err := d.count("node count", 1)
	if err != nil {
		return err
	}
	m, err := d.count("edge count", 2)
	if err != nil {
		return err
	}
	// Every graph the facade produces is connected, so n ≤ m+1; enforcing
	// it here bounds the allocation below by the input length.
	if n > m+1 {
		return fmt.Errorf("radiobcast: labeling codec: %d nodes with %d edges cannot be connected", n, m)
	}
	g := known
	if known == nil {
		g, err = d.graph(n, m)
	} else {
		err = d.knownGraph(known, n, m)
	}
	if err != nil {
		return err
	}
	if source < 0 || source >= n {
		return fmt.Errorf("radiobcast: labeling codec: source %d out of range [0,%d)", source, n)
	}

	flags, err := d.byte("flags")
	if err != nil {
		return err
	}
	if flags&^byte(flagHasLabels|flagHasSchedule|flagHasStages) != 0 {
		return fmt.Errorf("radiobcast: labeling codec: unknown flag bits %#x", flags)
	}
	if flags&flagHasStages == 0 && stagesRequired(string(scheme)) {
		return labelingMismatch("labeling codec: a %s labeling without its stages", scheme)
	}

	var labels []Label
	if flags&flagHasLabels != 0 {
		labels = make([]Label, n)
		for v := range labels {
			b, err := d.bytes("label")
			if err != nil {
				return err
			}
			if labels[v], err = core.ParseLabel(b); err != nil {
				return fmt.Errorf("radiobcast: labeling codec: node %d: %w", v, err)
			}
		}
	}
	delayOne, err := d.varint("delay-one")
	if err != nil {
		return err
	}
	delayZero, err := d.varint("delay-zero")
	if err != nil {
		return err
	}

	var schedule [][]int
	if flags&flagHasSchedule != 0 {
		rounds, err := d.count("schedule rounds", 1)
		if err != nil {
			return err
		}
		schedule = make([][]int, rounds)
		for i := range schedule {
			k, err := d.count("schedule round", 1)
			if err != nil {
				return err
			}
			round := make([]int, k)
			for j := range round {
				if round[j], err = d.node("schedule node", n); err != nil {
					return err
				}
			}
			schedule[i] = round
		}
	}

	var stages *core.Stages
	if flags&flagHasStages != 0 {
		lStage, err := d.varuint("stage count ℓ")
		if err != nil {
			return err
		}
		restricted, err := d.byte("restricted flag")
		if err != nil {
			return err
		}
		stalled, err := d.varuint("stalled stage")
		if err != nil {
			return err
		}
		stored, err := d.count("stored stages", 2)
		if err != nil {
			return err
		}
		// Lemma 2.6: the construction has ℓ ≤ n stages.
		if lStage > n || stored > n {
			return fmt.Errorf("radiobcast: labeling codec: %d stages (ℓ=%d) for %d nodes", stored, lStage, n)
		}
		off, nodes, err := d.stageLists(stored, n)
		if err != nil {
			return err
		}
		stages, err = core.RebuildStages(g, source, lStage, restricted != 0, stalled, off, nodes)
		if err != nil {
			return fmt.Errorf("radiobcast: labeling codec: %w", err)
		}
	}
	if d.rem() != 0 {
		return fmt.Errorf("radiobcast: labeling codec: %d trailing bytes", d.rem())
	}

	out := Labeling{
		Scheme:   string(scheme),
		Graph:    g,
		Source:   source,
		Labels:   labels,
		Stages:   stages,
		Delays:   baseline.FloodingDelays{DelayOne: delayOne, DelayZero: delayZero},
		Schedule: schedule,
	}
	if z != out.Z() || r != out.R() {
		return labelingMismatch("labeling codec: blob says z=%d r=%d, its %s labels say z=%d r=%d", z, r, out.Scheme, out.Z(), out.R())
	}
	*l = out
	return nil
}

// WriteLabeling writes the labeling's wire format to w — the transport
// half of the paper's central-monitor story: label here, run anywhere.
func WriteLabeling(w io.Writer, l *Labeling) error {
	buf, err := l.MarshalBinary()
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// ReadLabeling reads one labeling in the wire format from r (consuming r
// to EOF) and returns it ready for RunLabeled. The labeling's graph is
// decoded straight into its CSR and is not hashed: its Fingerprint is
// computed if and when a caller asks for it.
func ReadLabeling(r io.Reader) (*Labeling, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	l := new(Labeling)
	if err := l.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return l, nil
}

// decoder reads the wire format with every count bounded by the remaining
// input, so corrupt length fields fail instead of allocating. Error text
// is built only on the error path. It advances an offset instead of
// re-slicing buf: storing a slice header back into *d would make every
// read pay a GC write barrier while a collection runs.
type decoder struct {
	buf []byte
	off int // buf[off:] is the unread input
}

func (d *decoder) rem() int { return len(d.buf) - d.off }

func (d *decoder) byte(what string) (byte, error) {
	if d.off == len(d.buf) {
		return 0, fmt.Errorf("radiobcast: labeling codec: truncated at %s", what)
	}
	d.off++
	return d.buf[d.off-1], nil
}

// short reads a uvarint of one or two bytes, the encoding of every node
// id and count below 2¹⁴, and reports false, reading nothing, for any
// other. It makes no call, so it inlines: the per-element reads (count,
// edge, node) try it first and call varuint only for longer values,
// since calling varuint for every element made a decode 7–24% slower.
func (d *decoder) short() (int, bool) {
	if b := d.buf[d.off:]; len(b) > 0 && b[0] < 0x80 {
		d.off++
		return int(b[0]), true
	} else if len(b) > 1 && b[1] < 0x80 {
		d.off += 2
		return int(b[0]&0x7f) | int(b[1])<<7, true
	}
	return 0, false
}

// varuint reads a uvarint that must fit int32 (so the conversion below
// is safe even where int is 32 bits).
func (d *decoder) varuint(what string) (int, error) {
	v, k := binary.Uvarint(d.buf[d.off:])
	if k <= 0 {
		return 0, fmt.Errorf("radiobcast: labeling codec: truncated or malformed uvarint at %s", what)
	}
	if v >= 1<<31 {
		return 0, fmt.Errorf("radiobcast: labeling codec: %s %d implausibly large", what, v)
	}
	d.off += k
	return int(v), nil
}

func (d *decoder) varint(what string) (int, error) {
	v, k := binary.Varint(d.buf[d.off:])
	if k <= 0 {
		return 0, fmt.Errorf("radiobcast: labeling codec: truncated or malformed varint at %s", what)
	}
	d.off += k
	if v >= 1<<31 || v < -(1<<31) {
		return 0, fmt.Errorf("radiobcast: labeling codec: %s %d implausibly large", what, v)
	}
	return int(v), nil
}

// count reads a length field and requires the remaining input to hold at
// least minBytesPer bytes per counted element, bounding any subsequent
// allocation by the input size.
func (d *decoder) count(what string, minBytesPer int) (int, error) {
	v, ok := d.short()
	if !ok {
		var err error
		if v, err = d.varuint(what); err != nil {
			return 0, err
		}
	}
	if v*minBytesPer > d.rem() {
		return 0, fmt.Errorf("radiobcast: labeling codec: %s %d exceeds remaining input", what, v)
	}
	return v, nil
}

// bytes reads a length-prefixed byte string, returned as a slice of the
// input.
func (d *decoder) bytes(what string) ([]byte, error) {
	k, err := d.count(what, 1)
	if err != nil {
		return nil, err
	}
	d.off += k
	return d.buf[d.off-k : d.off], nil
}

// graph reads m edges into a fresh n-node graph, which must be simple
// and connected. The edges go straight into the graph's CSR as keys
// (graph.FromEdgeKeys), with no edit buffer; a canonical blob lists them
// in ascending key order, so sorting them takes one pass.
func (d *decoder) graph(n, m int) (*Graph, error) {
	keys := make([]int64, m)
	for i := range keys {
		u, v, err := d.edge()
		if err != nil {
			return nil, err
		}
		if u >= n || v >= n || u == v {
			return nil, fmt.Errorf("radiobcast: labeling codec: bad edge {%d,%d} in %d-node graph", u, v, n)
		}
		keys[i] = int64(min(u, v))*int64(n) + int64(max(u, v))
	}
	g := graph.FromEdgeKeys(n, keys)
	if g.M() != m {
		return nil, fmt.Errorf("radiobcast: labeling codec: duplicate edges (%d listed, %d distinct)", m, g.M())
	}
	if !g.IsConnected() {
		return nil, fmt.Errorf("radiobcast: labeling codec: graph is not connected")
	}
	return g, nil
}

// knownGraph reads m edges and requires them to be known's edges {u, w},
// u < w, in the lexicographic order MarshalBinary writes them.
func (d *decoder) knownGraph(known *Graph, n, m int) error {
	if n != known.N() || m != known.M() {
		return fmt.Errorf("radiobcast: labeling codec: blob graph has n=%d m=%d, known graph n=%d m=%d", n, m, known.N(), known.M())
	}
	csr := known.Freeze()
	for u := 0; u < n; u++ {
		for _, w := range csr.Neighbors(u) {
			if int(w) < u {
				continue
			}
			a, b, err := d.edge()
			if err != nil {
				return err
			}
			if a != u || b != int(w) {
				return fmt.Errorf("radiobcast: labeling codec: edge {%d,%d} where the known graph has {%d,%d}", a, b, u, w)
			}
		}
	}
	return nil
}

func (d *decoder) edge() (u, v int, err error) {
	u, ok := d.short()
	if !ok {
		if u, err = d.varuint("edge endpoint"); err != nil {
			return 0, 0, err
		}
	}
	if v, ok = d.short(); !ok {
		v, err = d.varuint("edge endpoint")
	}
	return u, v, err
}

// node reads one node id, which must lie in [0, n).
func (d *decoder) node(what string, n int) (int, error) {
	v, ok := d.short()
	if !ok {
		var err error
		if v, err = d.varuint(what); err != nil {
			return 0, err
		}
	}
	if v >= n {
		return 0, fmt.Errorf("radiobcast: labeling codec: %s %d out of range [0,%d)", what, v, n)
	}
	return v, nil
}

// stageLists reads the stored DOM_i/NEW_i list pairs, which end the blob,
// into the flat form core.RebuildStages takes: the lists' nodes back to
// back, DOM_1, NEW_1, DOM_2, NEW_2, … as the blob writes them, and the
// offset where each list ends after a leading 0. A uvarint ends at its
// only byte below 0x80, so well-formed remaining input holds exactly
// that many uvarints: the 2·stored list lengths and the nodes. Counting
// them, eight bytes at a time, sizes the nodes array once; a malformed
// section fails below.
func (d *decoder) stageLists(stored, n int) (off, nodes []int32, err error) {
	uvarints := 0
	rest := d.buf[d.off:]
	for ; len(rest) >= 8; rest = rest[8:] {
		uvarints += bits.OnesCount64(^binary.LittleEndian.Uint64(rest) & 0x8080808080808080)
	}
	for _, b := range rest {
		if b < 0x80 {
			uvarints++
		}
	}
	nodes = make([]int32, 0, max(uvarints-2*stored, 0))
	off = make([]int32, 1, 2*stored+1)
	for range 2 * stored {
		k, err := d.count("stage list", 1)
		if err != nil {
			return nil, nil, err
		}
		for ; k > 0; k-- {
			v, err := d.node("stage node", n)
			if err != nil {
				return nil, nil, err
			}
			nodes = append(nodes, int32(v))
		}
		off = append(off, int32(len(nodes)))
	}
	return off, nodes, nil
}
