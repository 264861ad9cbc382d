package graph

// Fingerprint returns a 64-bit structural hash of the graph: two graphs
// with the same node count and the same edge set (over the same node
// numbering) have the same fingerprint. It is the cache key of the
// facade's labeling cache — a labeling computed for one *Graph serves any
// structurally identical one. Freeze computes it together with the CSR.
func (g *Graph) Fingerprint() uint64 {
	g.Freeze()
	return g.fp
}

// fingerprint is FNV-1a over n and the CSR arrays.
func fingerprint(c *CSR) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= prime64
			x >>= 8
		}
	}
	mix(uint64(c.N()))
	// Offsets are determined by Targets plus the per-node degrees; hashing
	// both arrays pins the structure completely.
	for _, o := range c.Offsets {
		mix(uint64(uint32(o)))
	}
	for _, t := range c.Targets {
		mix(uint64(uint32(t)))
	}
	return h
}
