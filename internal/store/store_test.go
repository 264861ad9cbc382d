package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func testKey(i int) Key {
	return Key{Fingerprint: 0xabc0 + uint64(i), N: 8 + i, M: 7 + i, Scheme: "b", Source: 0, Coordinator: 0}
}

func mustOpen(t *testing.T, dir string, opt Options) *Store {
	t.Helper()
	s, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	defer s.Close()

	k := testKey(0)
	blob := []byte("hello labeling")
	if _, ok := s.Get(k); ok {
		t.Fatal("hit on empty store")
	}
	if err := s.Put(k, blob); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(k)
	if !ok || string(got) != string(blob) {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	if s.Entries() != 1 || s.Bytes() != int64(len(blob)) {
		t.Fatalf("Entries=%d Bytes=%d", s.Entries(), s.Bytes())
	}
	// Same key, same bytes: a no-op.
	if err := s.Put(k, blob); err != nil {
		t.Fatal(err)
	}
	if s.Entries() != 1 || s.Bytes() != int64(len(blob)) {
		t.Fatalf("after duplicate put: Entries=%d Bytes=%d", s.Entries(), s.Bytes())
	}
}

func TestReopenSeesEntries(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for i := 0; i < 5; i++ {
		if err := s.Put(testKey(i), []byte(fmt.Sprintf("blob-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	if s2.Entries() != 5 {
		t.Fatalf("reopened store has %d entries, want 5", s2.Entries())
	}
	for i := 0; i < 5; i++ {
		got, ok := s2.Get(testKey(i))
		if !ok || string(got) != fmt.Sprintf("blob-%d", i) {
			t.Fatalf("key %d: Get = %q, %v", i, got, ok)
		}
	}
}

func TestContentAddressingDedups(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	defer s.Close()
	blob := []byte("shared bytes")
	for i := 0; i < 3; i++ {
		if err := s.Put(testKey(i), blob); err != nil {
			t.Fatal(err)
		}
	}
	if s.Entries() != 3 {
		t.Fatalf("Entries = %d, want 3", s.Entries())
	}
	if s.Bytes() != int64(len(blob)) {
		t.Fatalf("Bytes = %d, want one copy (%d)", s.Bytes(), len(blob))
	}
}

func TestCorruptBlobQuarantinesToMiss(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	defer s.Close()
	k := testKey(0)
	blob := []byte("precious bits")
	if err := s.Put(k, blob); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	h := hex.EncodeToString(sum[:])
	path := filepath.Join(dir, "objects", h[:2], h[2:])
	bad := append([]byte(nil), blob...)
	bad[3] ^= 0x5a
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := s.Get(k); ok {
		t.Fatal("corrupt blob served as a hit")
	}
	if s.quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1", s.quarantined)
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", h)); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	// The key is gone for good, including after a reopen (delete records
	// were appended).
	if _, ok := s.Get(k); ok {
		t.Fatal("dropped key resurrected")
	}
	s.Close()
	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	if _, ok := s2.Get(k); ok {
		t.Fatal("dropped key resurrected after reopen")
	}
}

func TestTruncatedBlobDemotesToMiss(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	defer s.Close()
	k := testKey(0)
	blob := []byte("0123456789abcdef")
	if err := s.Put(k, blob); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	h := hex.EncodeToString(sum[:])
	path := filepath.Join(dir, "objects", h[:2], h[2:])
	if err := os.WriteFile(path, blob[:7], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("truncated blob served as a hit")
	}
}

func TestCorruptIndexRecordsSkipped(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	if err := s.Put(testKey(0), []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testKey(1), []byte("two")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	idx := filepath.Join(dir, "index.log")
	data, err := os.ReadFile(idx)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	// Corrupt the first record and append garbage plus a torn tail.
	lines[0] = strings.Replace(lines[0], "P ", "X ", 1)
	mangled := strings.Join(lines, "") + "not a record at all\n" + "P 0123 torn"
	if err := os.WriteFile(idx, []byte(mangled), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	if _, ok := s2.Get(testKey(0)); ok {
		t.Fatal("record with corrupt line served as a hit")
	}
	if got, ok := s2.Get(testKey(1)); !ok || string(got) != "two" {
		t.Fatalf("intact record lost: %q %v", got, ok)
	}
	if s2.corrupt < 2 {
		t.Fatalf("Corrupt = %d, want >= 2", s2.corrupt)
	}
}

func TestEvictionByAtime(t *testing.T) {
	dir := t.TempDir()
	blob := func(i int) []byte { return []byte(fmt.Sprintf("blob-%04d-padding-padding", i)) }
	size := int64(len(blob(0)))
	s := mustOpen(t, dir, Options{MaxBytes: 3 * size})
	defer s.Close()

	base := time.Now().Add(-time.Hour)
	for i := 0; i < 3; i++ {
		if err := s.Put(testKey(i), blob(i)); err != nil {
			t.Fatal(err)
		}
		// Backdate atimes: key 0 oldest.
		sum := sha256.Sum256(blob(i))
		h := hex.EncodeToString(sum[:])
		at := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(filepath.Join(dir, "objects", h[:2], h[2:]), at, at); err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		s.blobs[h].atime = at
		s.mu.Unlock()
	}

	// A Get refreshes key 0's atime, so key 1 becomes the eviction victim.
	if _, ok := s.Get(testKey(0)); !ok {
		t.Fatal("miss on live key")
	}
	if err := s.Put(testKey(3), blob(3)); err != nil {
		t.Fatal(err)
	}
	if s.evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", s.evictions)
	}
	if _, ok := s.Get(testKey(1)); ok {
		t.Fatal("LRU victim still present")
	}
	for _, i := range []int{0, 2, 3} {
		if _, ok := s.Get(testKey(i)); !ok {
			t.Fatalf("key %d evicted, want key 1", i)
		}
	}
}

func TestRecentKeysOrder(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	defer s.Close()
	for i := 0; i < 4; i++ {
		if err := s.Put(testKey(i), []byte(fmt.Sprintf("b%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	got := s.RecentKeys(2)
	if len(got) != 2 || got[0] != testKey(3) || got[1] != testKey(2) {
		t.Fatalf("RecentKeys(2) = %+v", got)
	}
	if all := s.RecentKeys(-1); len(all) != 4 {
		t.Fatalf("RecentKeys(-1) = %d keys", len(all))
	}
}

// TestCrossInstanceVisibility pins the "shared directory" contract: a Get
// that misses in memory re-reads the index tail, so puts from another
// Store handle (another process, in production) are visible without
// reopening.
func TestCrossInstanceVisibility(t *testing.T) {
	dir := t.TempDir()
	a := mustOpen(t, dir, Options{})
	defer a.Close()
	b := mustOpen(t, dir, Options{})
	defer b.Close()

	if err := a.Put(testKey(7), []byte("from a")); err != nil {
		t.Fatal(err)
	}
	got, ok := b.Get(testKey(7))
	if !ok || string(got) != "from a" {
		t.Fatalf("b.Get = %q, %v", got, ok)
	}
}

func TestConcurrentSameKeyWriters(t *testing.T) {
	dir := t.TempDir()
	stores := make([]*Store, 4)
	for i := range stores {
		stores[i] = mustOpen(t, dir, Options{})
		defer stores[i].Close()
	}
	k := testKey(0)
	blob := []byte("the one true labeling")
	var wg sync.WaitGroup
	for _, s := range stores {
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(s *Store) {
				defer wg.Done()
				if err := s.Put(k, blob); err != nil {
					t.Error(err)
				}
				if got, ok := s.Get(k); ok && string(got) != string(blob) {
					t.Errorf("Get = %q", got)
				}
			}(s)
		}
	}
	wg.Wait()
	for i, s := range stores {
		got, ok := s.Get(k)
		if !ok || string(got) != string(blob) {
			t.Fatalf("store %d: Get = %q, %v", i, got, ok)
		}
		if s.Bytes() != int64(len(blob)) {
			t.Fatalf("store %d: Bytes = %d, want one copy", i, s.Bytes())
		}
	}
	// Exactly one blob file exists.
	files := 0
	filepath.Walk(filepath.Join(dir, "objects"), func(_ string, info os.FileInfo, _ error) error {
		if info != nil && !info.IsDir() {
			files++
		}
		return nil
	})
	if files != 1 {
		t.Fatalf("%d blob files, want 1", files)
	}
}

func TestClosedStore(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	if err := s.Put(testKey(0), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, ok := s.Get(testKey(0)); ok {
		t.Fatal("closed store served a hit")
	}
	if err := s.Put(testKey(1), []byte("y")); err == nil {
		t.Fatal("closed store accepted a put")
	}
}

func TestRecordRoundTrip(t *testing.T) {
	recs := []record{
		{key: Key{Fingerprint: 0xdeadbeef, N: 64, M: 112, Scheme: "gjp", Source: 3, Coordinator: -1}, hash: strings.Repeat("ab", 32), size: 12345},
		{del: true, key: Key{Fingerprint: 1, N: 2, M: 1, Scheme: "b", Source: -1, Coordinator: 0}},
		{key: Key{Scheme: ""}, hash: strings.Repeat("00", 32), size: 0},
	}
	for _, want := range recs {
		line := formatRecord(want)
		if !strings.HasSuffix(line, "\n") {
			t.Fatalf("record %q not newline-terminated", line)
		}
		got, err := parseRecord(strings.TrimSuffix(line, "\n"))
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if got != want {
			t.Fatalf("round trip: got %+v want %+v", got, want)
		}
	}
}

// FuzzIndexParse feeds arbitrary lines to the index parser: it must never
// panic, and every record it accepts must re-format to a line that parses
// back to the same record (the parse is a fixed point).
func FuzzIndexParse(f *testing.F) {
	f.Add(strings.TrimSuffix(formatRecord(record{key: testKey(1), hash: strings.Repeat("2f", 32), size: 99}), "\n"))
	f.Add(strings.TrimSuffix(formatRecord(record{del: true, key: testKey(2)}), "\n"))
	f.Add("P 0016 not a record")
	f.Add("")
	f.Add("D \x00\xff 1 2 62 0 0 deadbeef")
	f.Fuzz(func(t *testing.T, line string) {
		rec, err := parseRecord(line)
		if err != nil {
			return
		}
		line2 := formatRecord(rec)
		rec2, err := parseRecord(strings.TrimSuffix(line2, "\n"))
		if err != nil {
			t.Fatalf("re-parse of %q failed: %v", line2, err)
		}
		if rec2 != rec {
			t.Fatalf("fixed point violated: %+v vs %+v", rec, rec2)
		}
	})
}
