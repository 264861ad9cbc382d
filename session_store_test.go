// Tests for the Session's disk tier: the persistent labeling store as a
// transparent L2 behind the in-memory LRU. The contract under test is the
// acceptance scenario — a second process pointed at the same directory
// serves bit-identical labelings with zero recomputation — plus the
// corruption discipline (a damaged store file is a miss, never an error)
// and drain/flush semantics of Close.
package radiobcast_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"radiobcast"
	"radiobcast/internal/store"
)

// storeNet builds a small frozen network for store tests.
func storeNet(t testing.TB, family string, n int) *radiobcast.Network {
	t.Helper()
	net, err := radiobcast.Family(family, n)
	if err != nil {
		t.Fatal(err)
	}
	net.Graph.Freeze()
	net.Graph.Fingerprint()
	return net
}

// blobPath returns the content-addressed file the store wrote for the
// given wire bytes.
func blobPath(dir string, data []byte) string {
	sum := sha256.Sum256(data)
	h := hex.EncodeToString(sum[:])
	return filepath.Join(dir, "objects", h[:2], h[2:])
}

// TestSessionStoreSecondSessionServesFromDisk is the acceptance path: one
// session computes and persists, a second session (a fresh process, in
// production) serves the same key from disk without calling Label, and
// the wire bytes are bit-identical.
func TestSessionStoreSecondSessionServesFromDisk(t *testing.T) {
	hookB.reset()
	defer hookB.reset()
	dir := t.TempDir()
	net := storeNet(t, "grid", 36)
	ctx := context.Background()

	a := radiobcast.NewSession(radiobcast.WithStore(dir))
	if err := a.Err(); err != nil {
		t.Fatal(err)
	}
	la, err := a.Label(ctx, net, "hook-b")
	if err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.Misses != 1 || st.StoreMisses != 1 || st.StoreWrites != 1 {
		t.Fatalf("first session stats = %+v, want 1 miss / 1 store miss / 1 store write", st)
	}
	if err := a.Close(ctx); err != nil {
		t.Fatal(err)
	}

	b := radiobcast.NewSession(radiobcast.WithStore(dir), radiobcast.WithStorePreload(0))
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	defer b.Close(ctx)
	lb, err := b.Label(ctx, net, "hook-b")
	if err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.StoreHits != 1 || st.Misses != 0 || st.StoreMisses != 0 {
		t.Fatalf("second session stats = %+v, want 1 store hit / 0 misses", st)
	}
	if got := hookB.labels.Load(); got != 1 {
		t.Fatalf("Label called %d times across two sessions, want 1", got)
	}

	wa, err := la.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	wb, err := lb.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wa, wb) {
		t.Fatal("store-served labeling is not bit-identical to the computed one")
	}

	// The disk-served labeling must drive a verifiably correct broadcast.
	out, err := b.Run(ctx, net, "hook-b", radiobcast.WithMessage("m"))
	if err != nil {
		t.Fatal(err)
	}
	if err := radiobcast.Verify(out); err != nil {
		t.Fatal(err)
	}
	// The Run was served from the LRU (warmed by the store hit above):
	// still zero computes.
	if got := hookB.labels.Load(); got != 1 {
		t.Fatalf("Label called %d times after Run, want 1", got)
	}
}

// TestSessionStoreCorruptionDemotesToMiss flips every byte of the stored
// blob in turn (the codec corruption harness, applied at the store layer)
// and then truncates it at every length: in all cases a fresh session must
// treat the damage as a miss — quarantine, recompute, re-persist — and
// never surface an error or a wrong labeling.
func TestSessionStoreCorruptionDemotesToMiss(t *testing.T) {
	dir := t.TempDir()
	net := storeNet(t, "path", 8)
	ctx := context.Background()

	seed := radiobcast.NewSession(radiobcast.WithStore(dir))
	if err := seed.Err(); err != nil {
		t.Fatal(err)
	}
	l, err := seed.Label(ctx, net, "b")
	if err != nil {
		t.Fatal(err)
	}
	want, err := l.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Close(ctx); err != nil {
		t.Fatal(err)
	}
	path := blobPath(dir, want)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("blob not on disk: %v", err)
	}

	check := func(t *testing.T, mutate func([]byte) []byte, what string) {
		t.Helper()
		bad := mutate(append([]byte(nil), want...))
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		sess := radiobcast.NewSession(radiobcast.WithStore(dir), radiobcast.WithStorePreload(0))
		if err := sess.Err(); err != nil {
			t.Fatal(err)
		}
		got, err := sess.Label(ctx, net, "b")
		if err != nil {
			t.Fatalf("%s: Label returned error %v, want silent recompute", what, err)
		}
		st := sess.Stats()
		if st.StoreHits != 0 || st.StoreMisses != 1 || st.Misses != 1 || st.StoreWrites != 1 {
			t.Fatalf("%s: stats = %+v, want miss + recompute + rewrite", what, st)
		}
		w, err := got.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w, want) {
			t.Fatalf("%s: recomputed labeling differs from original", what)
		}
		if err := sess.Close(ctx); err != nil {
			t.Fatal(err)
		}
		// The recompute re-persisted the canonical bytes under the same
		// content address, healing the store for the next iteration.
		healed, err := os.ReadFile(path)
		if err != nil || !bytes.Equal(healed, want) {
			t.Fatalf("%s: store not healed after recompute (err=%v)", what, err)
		}
	}

	for i := range want {
		i := i
		check(t, func(b []byte) []byte { b[i] ^= 0x5a; return b }, fmt.Sprintf("flip byte %d", i))
	}
	for n := 0; n < len(want); n++ {
		check(t, func(b []byte) []byte { return b[:n] }, fmt.Sprintf("truncate to %d", n))
	}
}

// TestSessionStoreWrongLabelingDropped covers the layer above the content
// hash: bytes that ARE a valid wire labeling but for the wrong key (hash
// intact, so the store is happy) must be caught by the session's decode
// cross-check and dropped.
func TestSessionStoreWrongLabelingDropped(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	netA := storeNet(t, "path", 8)
	netB := storeNet(t, "cycle", 9)

	seed := radiobcast.NewSession(radiobcast.WithStore(dir))
	if err := seed.Err(); err != nil {
		t.Fatal(err)
	}
	lb, err := seed.Label(ctx, netB, "b")
	if err != nil {
		t.Fatal(err)
	}
	wrong, err := lb.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Close(ctx); err != nil {
		t.Fatal(err)
	}

	// Plant netB's labeling under netA's key, through the store API so the
	// content address is correct.
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := store.Key{
		Fingerprint: netA.Graph.Fingerprint(),
		N:           netA.Graph.N(), M: netA.Graph.M(),
		Scheme: "b", Source: 0, Coordinator: 0,
	}
	if err := st.Put(key, wrong); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	sess := radiobcast.NewSession(radiobcast.WithStore(dir), radiobcast.WithStorePreload(0))
	if err := sess.Err(); err != nil {
		t.Fatal(err)
	}
	defer sess.Close(ctx)
	la, err := sess.Label(ctx, netA, "b")
	if err != nil {
		t.Fatal(err)
	}
	if la.Graph.N() != 8 {
		t.Fatalf("served labeling for n=%d under netA's key", la.Graph.N())
	}
	if s := sess.Stats(); s.StoreHits != 0 || s.Misses != 1 {
		t.Fatalf("stats = %+v, want the planted entry demoted to a miss", s)
	}
}

// TestSessionStoreWrongAnchorDropped: a blob is served only under a key
// whose Source is the blob's own anchor. A b labeling for source 0 and a
// barb labeling for coordinator 0 are planted under Source 5 — the barb
// entry is what a store written when keys held the source has for source
// 5 — and each reads as a miss, is dropped and is recomputed for 5.
func TestSessionStoreWrongAnchorDropped(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	net := storeNet(t, "path", 8)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := func(scheme string) store.Key {
		return store.Key{Fingerprint: net.Graph.Fingerprint(), N: 8, M: 7, Scheme: scheme, Source: 5}
	}
	for _, scheme := range []string{"b", "barb"} {
		l, err := radiobcast.LabelNetwork(net, scheme)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := l.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(key(scheme), blob); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	sess := radiobcast.NewSession(radiobcast.WithStore(dir), radiobcast.WithStorePreload(0))
	if err := sess.Err(); err != nil {
		t.Fatal(err)
	}
	lb, err := sess.Label(ctx, net, "b", radiobcast.WithSource(5))
	if err != nil {
		t.Fatal(err)
	}
	la, err := sess.Label(ctx, net, "barb", radiobcast.WithCoordinator(5))
	if err != nil {
		t.Fatal(err)
	}
	if lb.Source != 5 || la.Source != 5 || la.R() != 5 {
		t.Fatalf("served b for source %d and barb for coordinator %d (r=%d), want 5", lb.Source, la.Source, la.R())
	}
	if s := sess.Stats(); s.StoreHits != 0 || s.Misses != 2 || s.StoreWrites != 2 {
		t.Fatalf("stats = %+v, want both planted entries demoted to misses and rewritten", s)
	}
	if err := sess.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if st, err = store.Open(dir, store.Options{}); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for scheme, l := range map[string]*radiobcast.Labeling{"b": lb, "barb": la} {
		want, err := l.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := st.Get(key(scheme)); !ok || !bytes.Equal(got, want) {
			t.Errorf("%s: the key holds %d bytes (found %v), not the recomputed labeling", scheme, len(got), ok)
		}
	}
}

// TestSessionStoreForgedGraphDropped: a blob planted under the right key
// — same scheme, n and m, intact CRC and content address — but carrying
// a different graph must not be served. The store hit decodes onto the
// request's graph, whose edge list the blob fails to match, so the entry
// is dropped and the labeling recomputed; the recompute heals the store,
// and the next store hit shares the request's graph.
func TestSessionStoreForgedGraphDropped(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	netA := storeNet(t, "path", 8)
	netB := storeNet(t, "star", 8) // same n and m as netA
	lb, err := radiobcast.LabelNetwork(netB, "b")
	if err != nil {
		t.Fatal(err)
	}
	forged, err := lb.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := store.Key{Fingerprint: netA.Graph.Fingerprint(), N: 8, M: 7, Scheme: "b"}
	if err := st.Put(key, forged); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	sess := radiobcast.NewSession(radiobcast.WithStore(dir), radiobcast.WithStorePreload(0))
	if err := sess.Err(); err != nil {
		t.Fatal(err)
	}
	la, err := sess.Label(ctx, netA, "b")
	if err != nil {
		t.Fatal(err)
	}
	if la.Graph.Fingerprint() != netA.Graph.Fingerprint() {
		t.Fatal("served a labeling of the forged graph")
	}
	if s := sess.Stats(); s.StoreHits != 0 || s.Misses != 1 || s.StoreWrites != 1 {
		t.Fatalf("stats = %+v, want the forged entry demoted to a miss and rewritten", s)
	}
	out, err := sess.Run(ctx, netA, "b")
	if err != nil {
		t.Fatal(err)
	}
	if err := radiobcast.Verify(out); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(ctx); err != nil {
		t.Fatal(err)
	}

	healed := radiobcast.NewSession(radiobcast.WithStore(dir), radiobcast.WithStorePreload(0))
	defer healed.Close(ctx)
	l, err := healed.Label(ctx, netA, "b")
	if err != nil {
		t.Fatal(err)
	}
	if healed.StoreHits() != 1 || l.Graph != netA.Graph {
		t.Fatalf("store hits = %d, shares request graph = %v; want a hit decoded onto the request graph",
			healed.StoreHits(), l.Graph == netA.Graph)
	}
}

// TestSessionStoreConcurrentSameKey hammers one key from two sessions
// sharing a directory — the single-flight layer dedups within a session,
// the store's content addressing dedups across them. Run under -race.
func TestSessionStoreConcurrentSameKey(t *testing.T) {
	dir := t.TempDir()
	net := storeNet(t, "grid", 25)
	ctx := context.Background()

	sessions := []*radiobcast.Session{
		radiobcast.NewSession(radiobcast.WithStore(dir), radiobcast.WithStorePreload(0)),
		radiobcast.NewSession(radiobcast.WithStore(dir), radiobcast.WithStorePreload(0)),
	}
	for _, s := range sessions {
		if err := s.Err(); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	wires := make([][]byte, 16)
	errs := make([]error, 16)
	for i := 0; i < 16; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			l, err := sessions[i%2].Label(ctx, net, "b")
			if err != nil {
				errs[i] = err
				return
			}
			wires[i], errs[i] = l.MarshalBinary()
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
	for i := 1; i < len(wires); i++ {
		if !bytes.Equal(wires[i], wires[0]) {
			t.Fatalf("goroutine %d produced different wire bytes", i)
		}
	}
	for i, s := range sessions {
		if err := s.Close(ctx); err != nil {
			t.Fatalf("close session %d: %v", i, err)
		}
	}
	// Exactly one blob on disk despite the contention.
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Entries() != 1 || st.Bytes() != int64(len(wires[0])) {
		t.Fatalf("store holds %d entries / %d bytes, want 1 entry, one copy", st.Entries(), st.Bytes())
	}
}

// TestSessionStorePreload: NewSession against a populated directory warms
// the LRU, so the first Label is already an in-memory hit.
func TestSessionStorePreload(t *testing.T) {
	hookB.reset()
	defer hookB.reset()
	dir := t.TempDir()
	ctx := context.Background()
	nets := []*radiobcast.Network{
		storeNet(t, "path", 8),
		storeNet(t, "cycle", 9),
		storeNet(t, "star", 10),
	}
	seed := radiobcast.NewSession(radiobcast.WithStore(dir))
	if err := seed.Err(); err != nil {
		t.Fatal(err)
	}
	for _, n := range nets {
		if _, err := seed.Label(ctx, n, "hook-b"); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Close(ctx); err != nil {
		t.Fatal(err)
	}
	computes := hookB.labels.Load()

	warm := radiobcast.NewSession(radiobcast.WithStore(dir))
	if err := warm.Err(); err != nil {
		t.Fatal(err)
	}
	defer warm.Close(ctx)
	st := warm.Stats()
	if st.StoreHits != 3 || st.Entries != 3 {
		t.Fatalf("after preload: stats = %+v, want 3 store hits / 3 entries", st)
	}
	for _, n := range nets {
		if _, err := warm.Label(ctx, n, "hook-b"); err != nil {
			t.Fatal(err)
		}
	}
	st = warm.Stats()
	if st.Hits != 3 || st.Misses != 0 || st.StoreMisses != 0 {
		t.Fatalf("after labels: stats = %+v, want 3 LRU hits, zero misses", st)
	}
	if got := hookB.labels.Load(); got != computes {
		t.Fatalf("preloaded session recomputed: Label calls went %d -> %d", computes, got)
	}

	// WithStorePreload(0) must leave the LRU cold.
	cold := radiobcast.NewSession(radiobcast.WithStore(dir), radiobcast.WithStorePreload(0))
	if err := cold.Err(); err != nil {
		t.Fatal(err)
	}
	defer cold.Close(ctx)
	if st := cold.Stats(); st.Entries != 0 || st.StoreHits != 0 {
		t.Fatalf("preload disabled but stats = %+v", st)
	}
}

// TestSessionStorePreloadSharesGraph: the preload decodes the labelings
// of one topology onto one graph. A session stores b labelings of
// path/4096 from 8 sources; a session restarted on the store serves all
// 8 from its LRU, and they refer to one *Graph, where each preloaded
// labeling used to build a graph of its own.
func TestSessionStorePreloadSharesGraph(t *testing.T) {
	const sources = 8
	dir := t.TempDir()
	net := storeNet(t, "path", 4096)
	ctx := context.Background()

	seed := radiobcast.NewSession(radiobcast.WithStore(dir))
	if err := seed.Err(); err != nil {
		t.Fatal(err)
	}
	for src := range sources {
		if _, err := seed.Label(ctx, net, "b", radiobcast.WithSource(src)); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Close(ctx); err != nil {
		t.Fatal(err)
	}

	warm := radiobcast.NewSession(radiobcast.WithStore(dir))
	if err := warm.Err(); err != nil {
		t.Fatal(err)
	}
	defer warm.Close(ctx)
	graphs := map[*radiobcast.Graph]bool{}
	for src := range sources {
		l, err := warm.Label(ctx, net, "b", radiobcast.WithSource(src))
		if err != nil {
			t.Fatal(err)
		}
		graphs[l.Graph] = true
	}
	if st := warm.Stats(); st.Hits != sources || st.StoreHits != sources {
		t.Fatalf("stats = %+v, want %d preloaded store hits served as LRU hits", st, sources)
	}
	if len(graphs) != 1 {
		t.Fatalf("the %d labelings refer to %d graphs, want 1", sources, len(graphs))
	}
}

// TestSessionStoreOpenError: an unusable store directory surfaces through
// Err() and fails every operation, rather than silently running storeless.
func TestSessionStoreOpenError(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	sess := radiobcast.NewSession(radiobcast.WithStore(file))
	if sess.Err() == nil {
		t.Fatal("Err() = nil for store dir that is a regular file")
	}
	net := storeNet(t, "path", 8)
	if _, err := sess.Label(context.Background(), net, "b"); err == nil {
		t.Fatal("Label succeeded on a session whose store failed to open")
	}
	if err := sess.Close(context.Background()); err != nil && !errors.Is(err, radiobcast.ErrSessionClosed) {
		t.Fatalf("Close: %v", err)
	}
}

// TestSessionCloseFlushesStore extends the drain test to the disk tier:
// Close must be safe with store-backed operations still in flight, and
// after it returns the index must be durable — a reopened store sees
// every entry the session wrote.
func TestSessionCloseFlushesStore(t *testing.T) {
	hookB.reset()
	defer hookB.reset()
	dir := t.TempDir()
	ctx := context.Background()
	nets := []*radiobcast.Network{
		storeNet(t, "path", 8),
		storeNet(t, "cycle", 9),
		storeNet(t, "star", 10),
		storeNet(t, "grid", 16),
	}
	sess := radiobcast.NewSession(radiobcast.WithStore(dir), radiobcast.WithStorePreload(0))
	if err := sess.Err(); err != nil {
		t.Fatal(err)
	}

	// Gate inside Label so every racer is past the store read (a store
	// operation is genuinely in flight) when Close is called.
	entered := make(chan struct{}, len(nets))
	release := make(chan struct{})
	gate := func() error {
		entered <- struct{}{}
		<-release
		return nil
	}
	hookB.onLabel.Store(&gate)

	finished := make(chan error, len(nets))
	for _, n := range nets {
		n := n
		go func() {
			_, err := sess.Label(ctx, n, "hook-b")
			finished <- err
		}()
	}
	for range nets {
		<-entered
	}
	closed := make(chan error, 1)
	go func() { closed <- sess.Close(ctx) }()
	close(release)
	if err := <-closed; err != nil {
		t.Fatalf("Close with store ops in flight: %v", err)
	}
	for range nets {
		if err := <-finished; err != nil && !errors.Is(err, radiobcast.ErrSessionClosed) {
			t.Fatalf("in-flight Label failed with %v", err)
		}
	}

	// Durability: a fresh store handle on the same directory must replay
	// the index and serve every entry the drained session persisted.
	want := int(sess.Stats().StoreWrites)
	if want == 0 {
		t.Fatal("no store writes recorded; gate broke the flight path")
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Entries() != want {
		t.Fatalf("reopened store has %d entries, want %d", st.Entries(), want)
	}
	for _, k := range st.RecentKeys(-1) {
		if _, ok := st.Get(k); !ok {
			t.Fatalf("reopened store misses key %+v", k)
		}
	}
}

// BenchmarkStoreHit measures a restart: every iteration opens a Session
// and its store, serves one labeling from disk and closes them again, so
// the open and close dominate. It is the per-restart cost, not the
// per-key cost of an open store, and it runs no broadcast — do not set
// it against BenchmarkSessionCacheHit, which does.
func BenchmarkStoreHit(b *testing.B) {
	dir := b.TempDir()
	net := storeNet(b, "grid", 1024)
	ctx := context.Background()
	seed := radiobcast.NewSession(radiobcast.WithStore(dir))
	if err := seed.Err(); err != nil {
		b.Fatal(err)
	}
	if _, err := seed.Label(ctx, net, "b"); err != nil {
		b.Fatal(err)
	}
	if err := seed.Close(ctx); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess := radiobcast.NewSession(radiobcast.WithStore(dir), radiobcast.WithStorePreload(0))
		if err := sess.Err(); err != nil {
			b.Fatal(err)
		}
		if _, err := sess.Label(ctx, net, "b"); err != nil {
			b.Fatal(err)
		}
		if sess.StoreHits() != 1 {
			b.Fatal("iteration did not hit the store")
		}
		if err := sess.Close(ctx); err != nil {
			b.Fatal(err)
		}
	}
}
