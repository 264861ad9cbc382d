package graph

// Fingerprint returns a 64-bit structural hash of the graph: two graphs
// with the same node count and the same edge set (over the same node
// numbering) have the same fingerprint. It is the cache key of the
// facade's labeling cache — a labeling computed for one *Graph serves any
// structurally identical one. The first call hashes the CSR (freezing the
// graph if edits are pending) and later calls return the cached value;
// first calls on a shared frozen graph may come from several goroutines
// at once, each computing the same value.
func (g *Graph) Fingerprint() uint64 {
	c := g.Freeze()
	if fp := g.fp.Load(); fp != 0 {
		return fp
	}
	fp := fingerprint(c)
	g.fp.Store(fp)
	return fp
}

// fingerprint is FNV-1a over n and the CSR arrays, each int32 entry
// taken as the eight little-endian bytes of its uint64 widening.
func fingerprint(c *CSR) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
		// The four high bytes of a widened entry are zero, so FNV-1a only
		// multiplies by the prime for each of them: with the fourth byte's
		// multiply that is one multiply by prime64⁵ (mod 2⁶⁴).
		prime64x5 = prime64 * prime64 * prime64 * prime64 * prime64 % (1 << 64)
	)
	h := uint64(offset64)
	x := uint64(c.N())
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= prime64
		x >>= 8
	}
	mix := func(v int32) {
		x := uint32(v)
		h = (h ^ uint64(x&0xff)) * prime64
		h = (h ^ uint64(x>>8&0xff)) * prime64
		h = (h ^ uint64(x>>16&0xff)) * prime64
		h = (h ^ uint64(x>>24)) * prime64x5
	}
	// Offsets are determined by Targets plus the per-node degrees; hashing
	// both arrays pins the structure completely.
	for _, o := range c.Offsets {
		mix(o)
	}
	for _, t := range c.Targets {
		mix(t)
	}
	return h
}
