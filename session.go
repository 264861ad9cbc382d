package radiobcast

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"radiobcast/internal/store"
)

// Session is the serving object of the facade: it owns an LRU cache of
// labelings keyed by (graph fingerprint, scheme, Scheme.Anchor's node),
// so the steady state of a serve-many-runs workload — the paper's "label
// once at a central monitor, then broadcast forever" regime — does not
// relabel, and runs from every source share a "barb" labeling. Its runs,
// like every run without WithSim, borrow a reusable engine from the
// engine's pool, so they do not reallocate engine buffers either. A
// Session is safe for concurrent use; create one per process (or per
// tenant) and route every request through it:
//
//	sess := radiobcast.NewSession()
//	out, err := sess.Run(ctx, net, "b", radiobcast.WithMessage("µ"))
//
// The first Run for a topology pays the labeling; every later Run on a
// structurally identical graph is a cache hit that goes straight to the
// run. Concurrent first requests for the same key are
// single-flighted: one computes, the rest wait for it and share the
// result. Stats reports hits, misses, coalesced waits and evictions.
//
// One caveat comes from Graph: its first read builds its CSR from the
// edges added so far. When a single *Graph value is shared by concurrent
// Runs, call its Freeze once before handing it out; afterwards all uses
// are reads (the fingerprint, hashed on first use, may be first asked
// for concurrently). Graphs from Session.Family are published frozen
// and hashed already.
type Session struct {
	// Cache counters are plain atomics so Stats and the per-counter
	// accessors never contend with (or block behind) the cache lock —
	// the /metrics handler of a serving daemon reads them on every
	// scrape while request goroutines are mid-labeling.
	hits, misses, bypasses, evictions, coalesced atomic.Uint64
	storeHits, storeMisses, storeWrites          atomic.Uint64

	// store is the optional disk-backed L2 tier behind the LRU (see
	// WithStore); initErr records a store that failed to open, failing
	// every operation instead of silently serving without persistence.
	store        *store.Store
	storeDir     string
	storeMax     int64
	storePreload int
	initErr      error

	// opMu guards closed against ops.Add: begin takes the read side, so
	// any number of operations start concurrently; Close takes the write
	// side exactly once to flip closed, after which no new operation can
	// register and ops.Wait() observes a monotonically draining count.
	opMu   sync.RWMutex
	closed bool
	ops    sync.WaitGroup

	mu       sync.Mutex
	capacity int
	lru      list.List // of *cacheEntry, most recent first
	index    map[labelingKey]*list.Element
	// flights dedups concurrent label computations: the first miss on a
	// key becomes the leader and computes; later misses on the same key
	// wait on the flight instead of burning a core each on identical work.
	flights map[labelingKey]*flight

	// graphs caches the graphs Family builds, most recent first, holding
	// at most capacity entries; graphIndex maps each (name, n) request
	// onto its element.
	graphs     list.List // of *graphEntry
	graphIndex map[familyKey]*list.Element
}

// familyKey is a Family request as the caller made it: generators may
// round n, so two keys can name structurally identical graphs.
type familyKey struct {
	name string
	n    int
}

// graphEntry is one cached family member. net is the template every
// Family call copies: the copy is the caller's to mutate, the Graph
// inside is shared.
type graphEntry struct {
	key familyKey
	net Network
}

// flight is one in-progress labeling computation. The leader fills l/err
// and closes done; waiters read them only after done is closed (the
// happens-before edge), or abandon the wait when their own context ends.
type flight struct {
	done chan struct{}
	l    *Labeling
	err  error
}

// labelingKey identifies a cached labeling. The fingerprint is a 64-bit
// structural hash; n and m ride along so an (astronomically unlikely)
// hash collision between different-sized graphs still cannot alias.
// anchor is the one node the scheme's labels depend on (Scheme.Anchor).
type labelingKey struct {
	fp     uint64
	n, m   int
	scheme string
	anchor int
}

type cacheEntry struct {
	key labelingKey
	l   *Labeling
}

// SessionStats counts the labeling cache's traffic. Entries is the
// current cache size; the counters are cumulative and monotonic (each is
// maintained atomically, so concurrent Stats readers never observe a
// counter going backwards).
type SessionStats struct {
	// Hits counts runs served from the cache (no labeling computed).
	Hits uint64
	// Misses counts labelings computed and inserted.
	Misses uint64
	// Bypasses counts labelings computed without consulting the cache
	// (quick mode or a zero-capacity cache).
	Bypasses uint64
	// Evictions counts LRU entries discarded to make room.
	Evictions uint64
	// Coalesced counts requests that waited on another request's
	// in-flight labeling of the same key instead of computing their own
	// (single-flight deduplication). A coalesced request is neither a hit
	// nor a miss: N concurrent first requests for one key are 1 miss and
	// N−1 coalesced waits.
	Coalesced uint64
	// Entries is the number of labelings currently cached.
	Entries int

	// StoreHits counts labelings served from the disk store instead of
	// computed: LRU misses satisfied by a store read, plus warm-start
	// preloads. A store hit is neither a Hit nor a Miss.
	StoreHits uint64
	// StoreMisses counts LRU misses that also missed the store and had
	// to compute (zero when no store is configured).
	StoreMisses uint64
	// StoreWrites counts labelings persisted to the store.
	StoreWrites uint64
	// StoreBytes is the current total size of stored blobs.
	StoreBytes uint64
	// StoreEntries is the current number of stored labelings.
	StoreEntries int
	// StoreCorrupt counts store index records skipped as malformed or
	// failing their checksum.
	StoreCorrupt uint64
	// StoreQuarantined counts stored blobs moved to quarantine after a
	// content-hash mismatch (each also reads as a store miss).
	StoreQuarantined uint64
	// StoreEvictions counts stored blobs evicted by the byte cap
	// (WithStoreBytes).
	StoreEvictions uint64
}

// SessionOption configures NewSession.
type SessionOption func(*Session)

// DefaultLabelingCacheSize is the labeling-cache capacity of NewSession
// unless WithLabelingCache overrides it.
const DefaultLabelingCacheSize = 128

// WithLabelingCache sets the labeling cache's capacity in entries; 0 (or
// negative) disables caching entirely.
func WithLabelingCache(capacity int) SessionOption {
	return func(s *Session) {
		if capacity < 0 {
			capacity = 0
		}
		s.capacity = capacity
	}
}

// DefaultStorePreload bounds how many of the store's most-recent entries
// NewSession preloads into the LRU when WithStorePreload does not say
// otherwise (the cache capacity bounds it too).
const DefaultStorePreload = 64

// WithStore attaches a persistent disk-backed store rooted at dir as a
// transparent L2 tier behind the LRU: an LRU miss reads the store before
// computing, and every computed (cacheable) labeling is written back in
// the portable wire format, so labelings survive the process and are
// shared between Sessions pointing at the same directory. If the store
// cannot be opened, every session operation fails with the open error
// (see Err) rather than silently serving without persistence.
func WithStore(dir string) SessionOption {
	return func(s *Session) { s.storeDir = dir }
}

// WithStoreBytes caps the store's total blob bytes; past the cap the
// least-recently-accessed blobs are evicted. 0 (the default) means
// unbounded.
func WithStoreBytes(max int64) SessionOption {
	return func(s *Session) { s.storeMax = max }
}

// WithStorePreload sets how many of the store's most-recent labelings
// NewSession decodes into the LRU up front (warm start); each preloaded
// entry counts as a StoreHit. 0 disables preloading; a negative value
// restores the default (min of DefaultStorePreload and the capacity).
func WithStorePreload(n int) SessionOption {
	return func(s *Session) { s.storePreload = n }
}

// NewSession returns a Session with an empty labeling cache.
func NewSession(opts ...SessionOption) *Session {
	s := &Session{
		capacity:     DefaultLabelingCacheSize,
		storePreload: -1,
		index:        map[labelingKey]*list.Element{},
		flights:      map[labelingKey]*flight{},
		graphIndex:   map[familyKey]*list.Element{},
	}
	for _, o := range opts {
		o(s)
	}
	if s.storeDir != "" {
		st, err := store.Open(s.storeDir, store.Options{MaxBytes: s.storeMax})
		if err != nil {
			s.initErr = fmt.Errorf("radiobcast: opening labeling store: %w", err)
			return s
		}
		s.store = st
		s.preloadStore()
	}
	return s
}

// Err reports whether the session was constructed in a failed state
// (today: WithStore pointing at an unusable directory). A failed session
// refuses every operation with this error; callers that can abort early —
// the daemon, the labeler — check it right after NewSession.
func (s *Session) Err() error { return s.initErr }

// preloadStore warms the LRU with the store's most-recent labelings, so
// a restarted daemon serves its working set from memory immediately.
// The first labeling of a topology builds its graph, and every later
// one with the same (fingerprint, n, m) decodes onto that graph, so the
// preloaded labelings of one topology share one graph.
func (s *Session) preloadStore() {
	n := s.storePreload
	if n < 0 {
		n = DefaultStorePreload
	}
	if n > s.capacity {
		n = s.capacity
	}
	if n <= 0 {
		return
	}
	graphs := map[labelingKey]*Graph{} // keyed by the graph fields alone
	for _, k := range s.store.RecentKeys(n) {
		if k.Coordinator != 0 {
			continue // no lookup reaches it (see storeKey)
		}
		key := labelingKey{
			fp: k.Fingerprint, n: k.N, m: k.M,
			scheme: k.Scheme, anchor: k.Source,
		}
		gkey := labelingKey{fp: key.fp, n: key.n, m: key.m}
		l, ok := s.storeGet(key, graphs[gkey])
		if !ok {
			continue
		}
		graphs[gkey] = l.Graph
		s.mu.Lock()
		if _, dup := s.index[key]; !dup {
			s.index[key] = s.lru.PushBack(&cacheEntry{key: key, l: l})
		}
		s.mu.Unlock()
	}
}

// Stats returns a snapshot of the labeling cache's counters. It is safe
// under any number of concurrent readers and writers, and each counter is
// monotonic across snapshots: a later Stats never reports a smaller Hits
// (Misses, …) than an earlier one. The counters are read individually, so
// a snapshot taken mid-operation may be skewed by the operation in flight
// — fine for metrics, which is what this is for.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	entries := s.lru.Len()
	s.mu.Unlock()
	st := SessionStats{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Bypasses:    s.bypasses.Load(),
		Evictions:   s.evictions.Load(),
		Coalesced:   s.coalesced.Load(),
		Entries:     entries,
		StoreHits:   s.storeHits.Load(),
		StoreMisses: s.storeMisses.Load(),
		StoreWrites: s.storeWrites.Load(),
	}
	if s.store != nil {
		st.StoreBytes = uint64(s.store.Bytes())
		st.StoreEntries = s.store.Entries()
		st.StoreCorrupt, st.StoreQuarantined, st.StoreEvictions = s.store.Counters()
	}
	return st
}

// CacheHits returns the cumulative cache-hit count (see SessionStats.Hits).
func (s *Session) CacheHits() uint64 { return s.hits.Load() }

// CacheMisses returns the cumulative miss count (see SessionStats.Misses).
func (s *Session) CacheMisses() uint64 { return s.misses.Load() }

// StoreHits returns the cumulative count of labelings served from the
// disk store (see SessionStats.StoreHits).
func (s *Session) StoreHits() uint64 { return s.storeHits.Load() }

// begin registers one in-flight operation, failing once the session is
// closed. Every public entry point pairs it with end, so Close can wait
// for the cache and the store to quiesce.
func (s *Session) begin() error {
	if s.initErr != nil {
		return s.initErr
	}
	s.opMu.RLock()
	defer s.opMu.RUnlock()
	if s.closed {
		return fmt.Errorf("radiobcast: %w", ErrSessionClosed)
	}
	s.ops.Add(1)
	return nil
}

func (s *Session) end() { s.ops.Done() }

// Close drains the session: new Run/Label/RunLabeled/Sweep calls fail
// immediately with ErrSessionClosed, while operations already in flight
// run to completion — Close blocks until the last one returns (or until
// ctx expires, returning ctx.Err() with the session still draining).
// Closing an already-closed session waits again but is otherwise a
// no-op. A nil ctx waits without a deadline.
//
// Close does not cancel in-flight work; callers wanting a bounded drain
// pass the same deadline to the operations' contexts (the daemon does
// exactly that) or to ctx here.
//
// With a store attached, Close flushes (fsyncs) and closes its index
// after the drain — store reads and writes happen inside registered
// operations, so none can be in flight by the time the store goes away.
// If ctx expires first, the session is still draining and the store is
// closed by the drain goroutine once the last operation returns.
func (s *Session) Close(ctx context.Context) error {
	s.opMu.Lock()
	s.closed = true
	s.opMu.Unlock()
	done := make(chan error, 1)
	go func() {
		s.ops.Wait()
		var err error
		if s.store != nil {
			err = s.store.Close() // idempotent: safe across repeated Closes
		}
		done <- err
	}()
	if ctx == nil {
		return <-done
	}
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Family is the package-level Family served from a graph cache: each
// (name, n) member is built once per Session, then shared by every later
// request for it, so a serving loop pays the generator only on the first
// request for a topology. The cache holds at most the labeling cache's
// capacity in graphs, evicting the least recently used; with capacity 0
// nothing is cached. Unknown names return Family's error and are not
// cached.
//
// Every call returns a fresh *Network, so the caller may set its Source
// and Coordinator (At, Coordinated); "figure1" keeps its preset source.
// The *Graph inside is shared between callers, and its CSR and
// fingerprint are built before it is first returned: the labeling cache
// keys every request on it by the fingerprint, so the hash is paid once
// per cached graph. Shared graphs are read-only: a caller must not
// AddEdge on it — clone it first. The churn fault model
// edits a private copy of its CSR.
func (s *Session) Family(name string, n int) (*Network, error) {
	key := familyKey{name, n}
	s.mu.Lock()
	if el, ok := s.graphIndex[key]; ok {
		s.graphs.MoveToFront(el)
		net := el.Value.(*graphEntry).net
		s.mu.Unlock()
		return &net, nil
	}
	s.mu.Unlock()
	net, err := Family(name, n)
	if err != nil {
		return nil, err
	}
	net.Graph.Fingerprint() // freezes the graph, then hashes it
	if s.capacity <= 0 {
		return net, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.graphIndex[key]; ok {
		// A concurrent call built the same member first; share its graph,
		// so every labeling of the member refers to one copy.
		net.Graph = el.Value.(*graphEntry).net.Graph
		return net, nil
	}
	s.graphIndex[key] = s.graphs.PushFront(&graphEntry{key: key, net: *net})
	for s.graphs.Len() > s.capacity {
		oldest := s.graphs.Back()
		s.graphs.Remove(oldest)
		delete(s.graphIndex, oldest.Value.(*graphEntry).key)
	}
	return net, nil
}

// Label resolves the network and returns the scheme's labeling, serving
// it from the session cache when possible (see Run for the cache key).
func (s *Session) Label(ctx context.Context, net *Network, scheme string, opts ...Option) (*Labeling, error) {
	if err := s.begin(); err != nil {
		return nil, err
	}
	defer s.end()
	sch, cfg, source, err := prepare(ctx, net, scheme, opts)
	if err != nil {
		return nil, err
	}
	return s.labelCached(ctx, sch, net.Graph, sch.Anchor(source, cfg.Coordinator), cfg)
}

// Run labels (or cache-hits) the network and executes one broadcast. It
// is RunCtx with the session's labeling cache in front: steady-state
// serving does not relabel, and the run borrows a pooled engine as every
// run without WithSim does. The cancellation contract is RunCtx's —
// partial Outcome plus ctx.Err() on a cancelled run.
func (s *Session) Run(ctx context.Context, net *Network, scheme string, opts ...Option) (*Outcome, error) {
	if err := s.begin(); err != nil {
		return nil, err
	}
	defer s.end()
	sch, cfg, source, err := prepare(ctx, net, scheme, opts)
	if err != nil {
		return nil, err
	}
	l, err := s.labelCached(ctx, sch, net.Graph, sch.Anchor(source, cfg.Coordinator), cfg)
	if err != nil {
		return nil, err
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	return finish(sch, l, source, cfg)
}

// RunLabeled executes one broadcast over a caller-supplied labeling (the
// labeling cache is not consulted — the caller already has the artifact,
// e.g. from ReadLabeling).
func (s *Session) RunLabeled(ctx context.Context, l *Labeling, opts ...Option) (*Outcome, error) {
	if err := s.begin(); err != nil {
		return nil, err
	}
	defer s.end()
	sch, cfg, source, err := prepareLabeled(ctx, l, opts)
	if err != nil {
		return nil, err
	}
	return finish(sch, l, source, cfg)
}

// cacheable reports whether a labeling under cfg is a pure function of
// (graph, scheme, anchor). Quick mode changes the labels of the searching
// schemes, so quick label calls bypass the cache instead of poisoning it.
func cacheable(cfg *Config) bool {
	return !cfg.Quick
}

// labelCached serves sch.Label for anchor through the LRU with single-flight
// deduplication. The labeling itself is computed outside the session lock
// — concurrent misses on different keys label in parallel — but
// concurrent misses on the *same* key do the work exactly once: the first
// becomes the leader, computes, inserts, and wakes the others, which wait
// on the flight (counted as coalesced) and return the leader's labeling.
// A waiter whose own context ends abandons the wait with ctx.Err(); the
// leader is unaffected. Labeling errors are delivered to every request of
// the flight but are not cached — the next request retries. A waiter
// whose own context is live does not take over the leader's
// cancellation (searching schemes stop when it ends): it waits again,
// or leads a new flight.
//
// With a store attached, the disk tier joins the same flight: the leader
// first tries a store read (a hit skips the compute entirely and counts
// as StoreHits, not Misses), and a computed labeling is written back
// before the flight is released, so N concurrent first requests for an
// unstored key are still one compute and one store write.
func (s *Session) labelCached(ctx context.Context, sch Scheme, g *Graph, anchor int, cfg *Config) (*Labeling, error) {
	if s.capacity <= 0 || !cacheable(cfg) {
		s.bypasses.Add(1)
		return sch.Label(g, anchor, cfg)
	}
	key := labelingKey{
		fp: g.Fingerprint(), n: g.N(), m: g.M(),
		scheme: sch.Name(), anchor: anchor,
	}
	s.mu.Lock()
	if el, ok := s.index[key]; ok {
		s.lru.MoveToFront(el)
		l := el.Value.(*cacheEntry).l
		s.mu.Unlock()
		s.hits.Add(1)
		return l, nil
	}
	if f, ok := s.flights[key]; ok {
		s.mu.Unlock()
		s.coalesced.Add(1)
		if ctx != nil {
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		<-f.done
		if ctxErr(ctx) == nil && (errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded)) {
			// The leader's context ended, not this request's.
			return s.labelCached(ctx, sch, g, anchor, cfg)
		}
		return f.l, f.err
	}
	f := &flight{done: make(chan struct{})}
	s.flights[key] = f
	s.mu.Unlock()

	defer func() {
		if f.l == nil && f.err == nil {
			// sch.Label panicked out from under us; don't strand the
			// waiters with a nil result (the panic itself propagates to
			// this leader's caller after the deferred cleanup).
			f.err = fmt.Errorf("radiobcast: labeling %s aborted", sch.Name())
		}
		s.mu.Lock()
		delete(s.flights, key)
		if f.err == nil {
			if _, ok := s.index[key]; !ok {
				s.index[key] = s.lru.PushFront(&cacheEntry{key: key, l: f.l})
				for s.lru.Len() > s.capacity {
					oldest := s.lru.Back()
					s.lru.Remove(oldest)
					delete(s.index, oldest.Value.(*cacheEntry).key)
					s.evictions.Add(1)
				}
			}
		}
		s.mu.Unlock()
		close(f.done)
	}()
	if s.store != nil {
		if l, ok := s.storeGet(key, g); ok {
			f.l = l
			return f.l, nil
		}
		s.storeMisses.Add(1)
	}
	s.misses.Add(1)
	f.l, f.err = sch.Label(g, anchor, cfg)
	if f.err == nil && s.store != nil {
		s.storeWrite(key, f.l)
	}
	return f.l, f.err
}

// storeKey maps the LRU key onto the store's key type, the anchor as
// Source and 0 as Coordinator (so b, back and gjp keys did not change).
func storeKey(k labelingKey) store.Key {
	return store.Key{
		Fingerprint: k.fp, N: k.n, M: k.m,
		Scheme: k.scheme, Source: k.anchor,
	}
}

// storeGet reads and decodes one labeling from the disk store. The store
// already guarantees the bytes hash to their content address; decoding
// the wire format (with its own CRC) and cross-checking the graph closes
// the loop. With a graph g, the request's or the one the preload decoded
// first for the key's topology, the blob decodes onto g — its edge list
// must be g's, edge for edge — so the labeling shares g instead of a
// private copy; with g nil (the preload's first labeling of a topology)
// the decoded graph's fingerprint is checked against the key instead.
// The blob's Source must be the key's anchor, so a barb entry keyed by its
// source is never served for another coordinator. Anything inconsistent
// is dropped from the store and demoted to a miss — never an error.
func (s *Session) storeGet(key labelingKey, g *Graph) (*Labeling, bool) {
	data, ok := s.store.Get(storeKey(key))
	if !ok {
		return nil, false
	}
	l := &Labeling{}
	// A decoded graph is frozen already; the preload hashes it here to
	// check it against the key.
	if err := l.decode(data, g); err != nil || l.Scheme != key.scheme || l.Source != key.anchor ||
		l.Graph.N() != key.n || l.Graph.M() != key.m ||
		(g == nil && l.Graph.Fingerprint() != key.fp) {
		s.store.Drop(storeKey(key))
		return nil, false
	}
	s.storeHits.Add(1)
	return l, true
}

// storeWrite persists one computed labeling. Failures are deliberately
// swallowed: the store is a cache tier, and a write error (disk full,
// permissions) must not fail a request the compute already satisfied.
func (s *Session) storeWrite(key labelingKey, l *Labeling) {
	data, err := l.MarshalBinary()
	if err != nil {
		return
	}
	if s.store.Put(storeKey(key), data) == nil {
		s.storeWrites.Add(1)
	}
}
