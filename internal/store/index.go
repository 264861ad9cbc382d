// Package store implements a disk-backed, content-addressed labeling
// store: the L2 tier behind the Session's in-memory LRU. Values are
// opaque blobs (the facade stores the versioned CRC-checksummed wire
// format) filed under the SHA-256 of their content; keys mirror the
// Session's labeling cache key (graph fingerprint + n + m + scheme +
// source + coordinator) and map to content hashes through an append-only
// index file.
//
// Layout under the root directory:
//
//	index.log                 append-only key → hash records (see below)
//	objects/<hh>/<hash[2:]>   content-addressed blobs, written via
//	                          tmp file + fsync + atomic rename
//	quarantine/<hash>         blobs that failed their content hash
//
// The store never returns corruption as an error: a blob whose bytes no
// longer hash to its name is moved to quarantine/ and the lookup demotes
// to a miss, so the caller simply recomputes (and rewrites) the entry.
package store

import (
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"
)

// Key identifies one stored labeling. It mirrors the Session's LRU key:
// the fingerprint is a 64-bit structural graph hash, with n and m riding
// along so a hash collision between different-sized graphs cannot alias.
// The Session writes the labeling's anchor, the one node its labels
// depend on, as Source, and 0 as Coordinator; the field stays so the
// index format does not change.
type Key struct {
	Fingerprint uint64
	N, M        int
	Scheme      string
	Source      int
	Coordinator int
}

// record is one parsed index line: a put (key → hash, with the blob size)
// or a delete (key dropped by eviction or quarantine).
type record struct {
	del  bool
	key  Key
	hash string // hex SHA-256 of the blob content (puts only)
	size int64  // blob size in bytes (puts only)
}

// Index records are single ASCII lines, one per mutation:
//
//	P <fp> <n> <m> <scheme-hex> <source> <coordinator> <hash> <size> <crc>
//	D <fp> <n> <m> <scheme-hex> <source> <coordinator> <crc>
//
// The scheme name travels hex-encoded so the line stays whitespace-safe
// for any registered name. The trailing field is the IEEE CRC32 of the
// line's preceding bytes (everything before the final space), so a torn
// or bit-flipped record fails closed: replay skips it and the affected
// key demotes to a miss. The format is append-only and self-delimiting —
// replay never needs to trust anything beyond the current line.

// formatRecord renders a record as an index line (with trailing newline).
func formatRecord(r record) string {
	var b strings.Builder
	if r.del {
		fmt.Fprintf(&b, "D %016x %d %d %s %d %d",
			r.key.Fingerprint, r.key.N, r.key.M, encodeScheme(r.key.Scheme),
			r.key.Source, r.key.Coordinator)
	} else {
		fmt.Fprintf(&b, "P %016x %d %d %s %d %d %s %d",
			r.key.Fingerprint, r.key.N, r.key.M, encodeScheme(r.key.Scheme),
			r.key.Source, r.key.Coordinator, r.hash, r.size)
	}
	body := b.String()
	return fmt.Sprintf("%s %08x\n", body, crc32.ChecksumIEEE([]byte(body)))
}

// parseRecord parses one index line (without its trailing newline). It
// must never panic on arbitrary input — the index is replayed from disk
// and fuzzed — and rejects anything that does not round-trip exactly:
// wrong field counts, malformed numbers, bad hex, or a CRC mismatch.
func parseRecord(line string) (record, error) {
	var r record
	body, crcField, ok := splitLast(line)
	if !ok {
		return r, fmt.Errorf("store: index record has no checksum field")
	}
	crc, err := strconv.ParseUint(crcField, 16, 32)
	if err != nil || len(crcField) != 8 {
		return r, fmt.Errorf("store: bad index record checksum %q", crcField)
	}
	if uint32(crc) != crc32.ChecksumIEEE([]byte(body)) {
		return r, fmt.Errorf("store: index record checksum mismatch")
	}
	fields := strings.Split(body, " ")
	switch {
	case len(fields) == 9 && fields[0] == "P":
		r.del = false
	case len(fields) == 7 && fields[0] == "D":
		r.del = true
	default:
		return r, fmt.Errorf("store: malformed index record")
	}
	if r.key.Fingerprint, err = strconv.ParseUint(fields[1], 16, 64); err != nil || len(fields[1]) != 16 {
		return r, fmt.Errorf("store: bad fingerprint field")
	}
	if r.key.N, err = strconv.Atoi(fields[2]); err != nil {
		return r, fmt.Errorf("store: bad n field")
	}
	if r.key.M, err = strconv.Atoi(fields[3]); err != nil {
		return r, fmt.Errorf("store: bad m field")
	}
	if r.key.Scheme, err = decodeScheme(fields[4]); err != nil {
		return r, err
	}
	if r.key.Source, err = strconv.Atoi(fields[5]); err != nil {
		return r, fmt.Errorf("store: bad source field")
	}
	if r.key.Coordinator, err = strconv.Atoi(fields[6]); err != nil {
		return r, fmt.Errorf("store: bad coordinator field")
	}
	if !r.del {
		r.hash = fields[7]
		if len(r.hash) != 64 {
			return r, fmt.Errorf("store: bad hash field")
		}
		if _, err := hex.DecodeString(r.hash); err != nil {
			return r, fmt.Errorf("store: bad hash field")
		}
		if r.size, err = strconv.ParseInt(fields[8], 10, 64); err != nil || r.size < 0 {
			return r, fmt.Errorf("store: bad size field")
		}
	}
	return r, nil
}

// splitLast splits a line at its final space.
func splitLast(line string) (body, last string, ok bool) {
	i := strings.LastIndexByte(line, ' ')
	if i < 0 {
		return "", "", false
	}
	return line[:i], line[i+1:], true
}

// encodeScheme hex-encodes a scheme name for the index line ("-" for the
// empty name, which no registered scheme uses but the format tolerates).
func encodeScheme(name string) string {
	if name == "" {
		return "-"
	}
	return hex.EncodeToString([]byte(name))
}

func decodeScheme(field string) (string, error) {
	if field == "-" {
		return "", nil
	}
	b, err := hex.DecodeString(field)
	if err != nil || len(field) == 0 {
		return "", fmt.Errorf("store: bad scheme field")
	}
	return string(b), nil
}
