package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Options configures Open.
type Options struct {
	// MaxBytes caps the total size of stored blobs; 0 (or negative) means
	// unbounded. When a put pushes the store over the cap, the blobs with
	// the oldest access time are evicted (the just-written blob is exempt,
	// so a single oversized entry still round-trips).
	MaxBytes int64
}

// Store is a disk-backed content-addressed key/value store for labeling
// blobs. It is safe for concurrent use within a process, and the on-disk
// format is safe for concurrent use across processes: blobs land via
// atomic rename, index records are appended with O_APPEND, and lookups
// that miss in memory re-read the index tail, so a store opened by one
// process observes another's puts.
type Store struct {
	dir      string
	maxBytes int64

	mu      sync.Mutex
	closed  bool
	index   map[Key]*entry
	blobs   map[string]*blob
	idxFile *os.File
	readOff int64 // index bytes replayed so far (always at a record boundary)
	tail    []byte
	seq     int64
	total   int64 // sum of live blob sizes

	corrupt     uint64 // index records skipped (malformed or CRC mismatch)
	quarantined uint64 // blobs moved to quarantine/ after a content-hash mismatch
	evictions   uint64 // blobs evicted by the byte cap
}

type entry struct {
	hash string
	seq  int64 // monotone put order; higher = more recent
}

type blob struct {
	size  int64
	atime time.Time
	keys  map[Key]struct{}
}

// Open opens (creating if needed) a store rooted at dir and replays its
// index. Blobs referenced by the index but missing or unreadable on disk
// are tolerated: they surface as misses on Get.
func Open(dir string, opt Options) (*Store, error) {
	for _, sub := range []string{"", "objects", "quarantine"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	f, err := os.OpenFile(filepath.Join(dir, "index.log"), os.O_RDWR|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:      dir,
		maxBytes: opt.MaxBytes,
		index:    map[Key]*entry{},
		blobs:    map[string]*blob{},
		idxFile:  f,
	}
	s.mu.Lock()
	s.refreshLocked()
	s.mu.Unlock()
	return s, nil
}

// Get returns the blob stored under k, or (nil, false) on a miss. A blob
// whose content no longer matches its hash — corruption, truncation, a
// torn write — is quarantined and reported as a miss, never an error.
// A hit refreshes the blob's access time (the eviction clock).
func (s *Store) Get(k Key) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false
	}
	e, ok := s.index[k]
	if !ok {
		// Another process may have appended since we last read the index.
		s.refreshLocked()
		if e, ok = s.index[k]; !ok {
			return nil, false
		}
	}
	path := s.blobPath(e.hash)
	data, err := os.ReadFile(path)
	if err != nil {
		s.dropBlobLocked(e.hash, false)
		return nil, false
	}
	if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != e.hash {
		s.dropBlobLocked(e.hash, true)
		return nil, false
	}
	now := time.Now()
	_ = os.Chtimes(path, now, now)
	if b := s.blobs[e.hash]; b != nil {
		b.atime = now
	}
	return data, true
}

// Put stores data under k. The blob is content-addressed, so putting the
// same bytes under many keys stores them once; putting the same key and
// bytes twice is a no-op. Put may evict older blobs to honor MaxBytes.
func (s *Store) Put(k Key, data []byte) error {
	sum := sha256.Sum256(data)
	h := hex.EncodeToString(sum[:])
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	s.refreshLocked()
	if e, ok := s.index[k]; ok && e.hash == h {
		return nil
	}
	if _, ok := s.blobs[h]; !ok {
		if err := s.writeBlob(h, data); err != nil {
			return err
		}
	}
	rec := record{key: k, hash: h, size: int64(len(data))}
	if err := s.appendLocked(rec); err != nil {
		return err
	}
	s.applyLocked(rec, time.Now())
	s.evictLocked(h)
	return nil
}

// Drop removes k's blob from the store (quarantining the file), together
// with every other key that shares it. Callers use it when a blob passed
// the content hash but failed a higher-level decode — a state corruption
// alone cannot produce, but which must still demote to a miss.
func (s *Store) Drop(k Key) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.index[k]; ok {
		s.dropBlobLocked(e.hash, true)
	}
}

// RecentKeys returns up to n keys in most-recently-put order, the order a
// warm start should preload them in.
func (s *Store) RecentKeys(n int) []Key {
	s.mu.Lock()
	defer s.mu.Unlock()
	type kv struct {
		k Key
		s int64
	}
	all := make([]kv, 0, len(s.index))
	for k, e := range s.index {
		all = append(all, kv{k, e.seq})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].s > all[j].s })
	if n > len(all) || n < 0 {
		n = len(all)
	}
	out := make([]Key, n)
	for i := range out {
		out[i] = all[i].k
	}
	return out
}

// Entries returns the number of live keys.
func (s *Store) Entries() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Bytes returns the total size of live blobs.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Close fsyncs and closes the index. Further Gets miss and Puts fail;
// Close is idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.idxFile.Sync(); err != nil {
		s.idxFile.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := s.idxFile.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

func (s *Store) blobPath(h string) string {
	return filepath.Join(s.dir, "objects", h[:2], h[2:])
}

// writeBlob lands a blob at its content address via tmp file + fsync +
// atomic rename, so a crash mid-write never leaves a partial blob at a
// live path.
func (s *Store) writeBlob(h string, data []byte) error {
	dir := filepath.Join(s.dir, "objects", h[:2])
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(dir, "tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.blobPath(h)); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// appendLocked writes one index record. The file is opened O_APPEND, so
// concurrent appenders (including other processes) interleave at record
// granularity.
func (s *Store) appendLocked(r record) error {
	if _, err := s.idxFile.WriteString(formatRecord(r)); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// refreshLocked replays index records appended since the last replay —
// our own and other processes'. Malformed or checksum-failed records are
// counted and skipped; an incomplete trailing line (a torn write in
// progress) is buffered until its newline arrives.
func (s *Store) refreshLocked() {
	sr := io.NewSectionReader(s.idxFile, s.readOff, 1<<62)
	data, err := io.ReadAll(sr)
	if err != nil && len(data) == 0 {
		return
	}
	s.readOff += int64(len(data))
	buf := append(s.tail, data...)
	for {
		nl := bytes.IndexByte(buf, '\n')
		if nl < 0 {
			break
		}
		line := string(buf[:nl])
		buf = buf[nl+1:]
		rec, err := parseRecord(line)
		if err != nil {
			s.corrupt++
			continue
		}
		s.applyLocked(rec, time.Time{})
	}
	s.tail = append([]byte(nil), buf...)
}

// applyLocked folds one record into the in-memory maps. atime is the
// access time to credit a put's blob with; the zero value means "stat the
// file" (replay of records written by an earlier process).
func (s *Store) applyLocked(rec record, atime time.Time) {
	if rec.del {
		s.unlinkKeyLocked(rec.key)
		return
	}
	if e, ok := s.index[rec.key]; ok {
		if e.hash == rec.hash {
			e.seq = s.nextSeq()
			return
		}
		s.unlinkKeyLocked(rec.key)
	}
	b, ok := s.blobs[rec.hash]
	if !ok {
		if atime.IsZero() {
			atime = time.Now()
			if fi, err := os.Stat(s.blobPath(rec.hash)); err == nil {
				atime = fi.ModTime()
			}
		}
		b = &blob{size: rec.size, atime: atime, keys: map[Key]struct{}{}}
		s.blobs[rec.hash] = b
		s.total += rec.size
	}
	b.keys[rec.key] = struct{}{}
	s.index[rec.key] = &entry{hash: rec.hash, seq: s.nextSeq()}
}

func (s *Store) nextSeq() int64 {
	s.seq++
	return s.seq
}

// unlinkKeyLocked removes one key, releasing its blob when the last
// reference goes (the file of an orphaned blob is deleted — it can always
// be recomputed).
func (s *Store) unlinkKeyLocked(k Key) {
	e, ok := s.index[k]
	if !ok {
		return
	}
	delete(s.index, k)
	b := s.blobs[e.hash]
	if b == nil {
		return
	}
	delete(b.keys, k)
	if len(b.keys) == 0 {
		delete(s.blobs, e.hash)
		s.total -= b.size
		os.Remove(s.blobPath(e.hash))
	}
}

// dropBlobLocked removes a blob and every key referencing it, appending
// delete records so other processes (and our own next replay) agree. With
// quarantine, the file is moved aside for post-mortem instead of deleted.
func (s *Store) dropBlobLocked(h string, quarantine bool) {
	b := s.blobs[h]
	if b == nil {
		return
	}
	if quarantine {
		if err := os.Rename(s.blobPath(h), filepath.Join(s.dir, "quarantine", h)); err != nil {
			os.Remove(s.blobPath(h))
		}
		s.quarantined++
	} else {
		os.Remove(s.blobPath(h))
	}
	for k := range b.keys {
		if !s.closed {
			_ = s.appendLocked(record{del: true, key: k})
		}
		delete(s.index, k)
	}
	delete(s.blobs, h)
	s.total -= b.size
}

// evictLocked enforces MaxBytes by dropping oldest-access-time blobs,
// never the just-written one.
func (s *Store) evictLocked(keep string) {
	if s.maxBytes <= 0 {
		return
	}
	for s.total > s.maxBytes {
		victim := ""
		var oldest time.Time
		for h, b := range s.blobs {
			if h == keep {
				continue
			}
			if victim == "" || b.atime.Before(oldest) {
				victim, oldest = h, b.atime
			}
		}
		if victim == "" {
			return
		}
		s.dropBlobLocked(victim, false)
		s.evictions++
	}
}
