package core

import (
	"sync"

	"radiobcast/internal/radio"
)

// slab is the protocol state of one run: a node per label and the
// protocol vector over those nodes.
type slab[T any] struct {
	nodes []T
	ps    []radio.Protocol
}

// ackSlabs and barbSlabs hold released slabs of AckNode and AlgBarb
// nodes, so that a run on a reused Sim allocates neither array: the
// protocol constructors take their slab here, and the release they
// return puts it back.
var ackSlabs, barbSlabs sync.Pool

// takeSlab returns a slab from pool sized for n nodes. Its nodes and
// protocols are stale: the caller sets every one.
func takeSlab[T any](pool *sync.Pool, n int) *slab[T] {
	s, _ := pool.Get().(*slab[T])
	if s == nil {
		s = new(slab[T])
	}
	if cap(s.nodes) < n {
		s.nodes, s.ps = make([]T, n), make([]radio.Protocol, n)
	}
	s.nodes, s.ps = s.nodes[:n], s.ps[:n]
	return s
}

// put clears the nodes, so that an idle slab keeps no payload string
// alive, and returns the slab to pool.
func (s *slab[T]) put(pool *sync.Pool) {
	clear(s.nodes)
	pool.Put(s)
}
