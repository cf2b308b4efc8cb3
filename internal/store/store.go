// Package store is the disk tier of the stemsd result cache: a
// content-addressed store holding one file per run key (the SHA-256 of
// the run's canonical spec, see stems.RunKey), so a restarted daemon
// answers previously computed jobs from disk instead of re-simulating.
//
// Layout: entries live one level deep, in at most 256 fanout
// directories named by the key's first two hex digits —
// dir/ab/<full-64-hex-key> — as git lays out its loose objects. A
// directory holds about bound/256 entries, and the store makes at most
// 257 directories however many keys it has held. Writes go to a
// same-directory *.tmp file first and rename into place, so readers
// (and a daemon killed mid-write) never observe a half-written entry;
// leftover *.tmp files are swept on Open. Every entry carries a small
// header (magic, payload length, CRC-32) verified on read — a corrupt
// or truncated file is deleted and reported as a miss, never served.
//
// The store is LRU-bounded by entry count. The recency index is held in
// memory and rebuilt on Open from file modification times (Get bumps an
// entry's mtime best-effort, so recency survives restarts too). The
// rebuild reads the root and each fanout directory once and takes each
// entry's size and mtime from its directory entry; it opens no entry.
// Files and directories that are not the store's are left alone.
//
// Earlier versions laid entries out two levels deep, dir/ab/cd/<key>,
// which gave nearly every entry a leaf directory of its own that
// eviction never removed. Open moves such a store into the one-level
// layout in place: it renames each entry up one level (a rename keeps
// the mtime, so the entry keeps its recency) and removes the emptied
// leaf directory. A migration cut short by a crash finishes on the next
// Open.
//
// Byte identity is the contract: Get returns exactly the bytes Put
// stored, which for stemsd are the canonical label-less result bytes of
// the in-memory cache — a result served from disk is byte-identical to
// its first computation crossing the wire.
package store

import (
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"stems/internal/obs"
)

// Entry header: magic + uint32 payload length + uint32 CRC-32 (IEEE) of
// the payload, little-endian.
var magic = [4]byte{'S', 'C', 'S', '1'}

const headerSize = 12

// ErrClosed reports use after Close.
var ErrClosed = errors.New("store: closed")

// Stats is a snapshot of the store's counters for /metrics.
type Stats struct {
	// Entries and Bytes describe the resident payload (header overhead
	// excluded from Bytes).
	Entries int
	Bytes   int64
	// Hits and Misses count Get outcomes; Evictions counts entries
	// dropped by the LRU bound; CorruptDropped counts entries deleted
	// because their header or CRC failed verification on read.
	Hits           uint64
	Misses         uint64
	Evictions      uint64
	CorruptDropped uint64
	// Migrated counts the entries Open moved out of the two-level
	// layout of earlier versions.
	Migrated uint64
	// ReadLatency and WriteLatency are the disk I/O distributions: entry
	// read+verify time (hits only) and entry write+sync+rename time.
	ReadLatency  obs.Snapshot
	WriteLatency obs.Snapshot
}

// Store is a disk-backed content-addressed byte store, safe for
// concurrent use.
type Store struct {
	dir   string
	bound int

	mu      sync.Mutex
	closed  bool
	entries map[string]*list.Element // key → ll element holding *entry
	ll      *list.List               // front = most recently used
	bytes   int64
	stats   Stats

	// Disk-latency histograms (lock-free; recorded outside s.mu would be
	// ideal, but the durations are µs-scale against a held mutex that
	// every caller already pays — the observability is worth it). They
	// live here rather than in a registry so a store is observable with
	// or without one; the service attaches them to its registry.
	readLat  obs.Histogram
	writeLat obs.Histogram
}

type entry struct {
	key  string
	size int64
}

// Open opens (creating if needed) a store rooted at dir, bounded to at
// most bound entries (bound <= 0 selects 4096). It sweeps leftover
// temporary files from interrupted writes and rebuilds the LRU index
// from the entries on disk, oldest-modified first, evicting down to the
// bound.
func Open(dir string, bound int) (*Store, error) {
	if bound <= 0 {
		bound = 4096
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	s := &Store{
		dir:     dir,
		bound:   bound,
		entries: make(map[string]*list.Element),
		ll:      list.New(),
	}
	if err := s.rebuild(); err != nil {
		return nil, err
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Bound returns the LRU entry cap.
func (s *Store) Bound() int { return s.bound }

// rebuild reads the root and each fanout directory once: it removes
// *.tmp leftovers, migrates two-level leaf directories, indexes valid
// entry files by mtime (recency), and enforces the bound.
func (s *Store) rebuild() error {
	var all []found
	fans, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: rebuilding index: %w", err)
	}
	for _, fan := range fans {
		if !fan.IsDir() || !isHex(fan.Name(), 2) {
			continue // not one of ours
		}
		fanDir := filepath.Join(s.dir, fan.Name())
		ents, err := os.ReadDir(fanDir)
		if err != nil {
			return fmt.Errorf("store: rebuilding index: %w", err)
		}
		for _, e := range ents {
			name := e.Name()
			switch {
			case e.IsDir():
				if isHex(name, 2) {
					moved, err := s.migrate(filepath.Join(fanDir, name), fan.Name()+name)
					if err != nil {
						return err
					}
					all = append(all, moved...)
				}
			case strings.HasSuffix(name, ".tmp"):
				// An interrupted write: the rename never happened, so
				// the entry does not exist. Sweep it.
				os.Remove(filepath.Join(fanDir, name)) //nolint:errcheck // best-effort cleanup
			case validKey(name) && name[:2] == fan.Name():
				if f, ok := stat(name, e); ok {
					all = append(all, f)
				}
			}
		}
	}
	// Oldest first, so PushFront leaves the most recently used at the
	// front — the same order Put/Get maintain.
	sort.Slice(all, func(i, j int) bool { return all[i].mtime.Before(all[j].mtime) })
	for _, f := range all {
		if _, dup := s.entries[f.key]; dup {
			continue // a two-level copy renamed onto a moved one: one file
		}
		s.entries[f.key] = s.ll.PushFront(&entry{key: f.key, size: f.size})
		s.bytes += f.size
	}
	s.evictLocked()
	return nil
}

// migrate moves the entries of leaf, a dir/ab/cd directory of the
// two-level layout whose keys start with prefix "abcd", up into dir/ab
// and returns them. It sweeps the leaf's *.tmp leftovers and removes the
// leaf if that left it empty.
func (s *Store) migrate(leaf, prefix string) ([]found, error) {
	ents, err := os.ReadDir(leaf)
	if err != nil {
		return nil, fmt.Errorf("store: migrating %s: %w", leaf, err)
	}
	var moved []found
	for _, e := range ents {
		name, old := e.Name(), filepath.Join(leaf, e.Name())
		switch {
		case e.IsDir():
			// Not one of ours.
		case strings.HasSuffix(name, ".tmp"):
			os.Remove(old) //nolint:errcheck // best-effort cleanup
		case validKey(name) && name[:4] == prefix:
			// Stat before the rename: the DirEntry names the old path.
			f, ok := stat(name, e)
			if !ok {
				continue
			}
			if err := os.Rename(old, s.path(name)); err != nil {
				return nil, fmt.Errorf("store: migrating %s: %w", name, err)
			}
			s.stats.Migrated++
			moved = append(moved, f)
		}
	}
	os.Remove(leaf) //nolint:errcheck // fails, as it should, while foreign files remain
	return moved, nil
}

// found is an entry file the rebuild indexes.
type found struct {
	key   string
	size  int64
	mtime time.Time
}

// stat describes the entry file e, named key; ok is false if it
// vanished since its directory was read.
func stat(key string, e fs.DirEntry) (f found, ok bool) {
	info, err := e.Info()
	if err != nil {
		return found{}, false // raced with a delete; skip
	}
	size := info.Size() - headerSize
	if size < 0 {
		size = 0 // undersized; Get will drop it as corrupt
	}
	return found{key: key, size: size, mtime: info.ModTime()}, true
}

// path maps a key to its entry file: dir/ab/<key>.
func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key[:2], key)
}

// validKey reports whether name looks like a SHA-256 hex content
// address (the only filenames the store creates).
func validKey(name string) bool { return isHex(name, 64) }

// isHex reports whether name is n lowercase hex digits.
func isHex(name string, n int) bool {
	if len(name) != n {
		return false
	}
	for i := 0; i < n; i++ {
		c := name[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Get returns the stored bytes for key. A missing entry is a miss; an
// entry that fails header or CRC verification is deleted, counted in
// CorruptDropped, and reported as a miss.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false
	}
	el, ok := s.entries[key]
	if !ok {
		s.stats.Misses++
		return nil, false
	}
	start := time.Now()
	data, err := readEntry(s.path(key))
	s.readLat.Observe(time.Since(start))
	if err != nil {
		// Corrupt or vanished: drop it from disk and index, miss.
		s.dropLocked(el)
		s.stats.CorruptDropped++
		s.stats.Misses++
		return nil, false
	}
	s.ll.MoveToFront(el)
	s.stats.Hits++
	// Bump the mtime so recency survives a restart's index rebuild.
	now := time.Now()
	os.Chtimes(s.path(key), now, now) //nolint:errcheck // best-effort recency
	return data, true
}

// Contains reports whether key is indexed, without touching recency or
// the hit/miss counters.
func (s *Store) Contains(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[key]
	return ok
}

// Put stores data under key. The write is atomic (tmp file + rename):
// a crash at any point leaves either the previous state or the complete
// entry, never a torn one. Storing an existing key only refreshes its
// recency — the store is content-addressed, so the bytes are already
// right.
func (s *Store) Put(key string, data []byte) error {
	if !validKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if el, ok := s.entries[key]; ok {
		s.ll.MoveToFront(el)
		return nil
	}
	start := time.Now()
	err := writeEntry(s.path(key), data)
	s.writeLat.Observe(time.Since(start))
	if err != nil {
		return err
	}
	s.entries[key] = s.ll.PushFront(&entry{key: key, size: int64(len(data))})
	s.bytes += int64(len(data))
	s.evictLocked()
	return nil
}

// evictLocked deletes least-recently-used entries beyond the bound.
func (s *Store) evictLocked() {
	for s.ll.Len() > s.bound {
		s.dropLocked(s.ll.Back())
		s.stats.Evictions++
	}
}

// dropLocked removes one entry from the index and the filesystem.
func (s *Store) dropLocked(el *list.Element) {
	e := el.Value.(*entry)
	s.ll.Remove(el)
	delete(s.entries, e.key)
	s.bytes -= e.size
	os.Remove(s.path(e.key)) //nolint:errcheck // already unindexed
}

// Len returns the number of resident entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}

// Stats snapshots the store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = s.ll.Len()
	st.Bytes = s.bytes
	st.ReadLatency = s.readLat.Snapshot()
	st.WriteLatency = s.writeLat.Snapshot()
	return st
}

// Latencies exposes the live disk-latency histograms so an owner can
// attach them to a metrics registry (the service registers them as
// stemsd_store_read_seconds / stemsd_store_write_seconds).
func (s *Store) Latencies() (read, write *obs.Histogram) {
	return &s.readLat, &s.writeLat
}

// Close marks the store closed; subsequent Get misses and Put fails
// with ErrClosed. Files on disk are left for the next Open.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

// writeEntry writes header+payload to a same-directory temp file, syncs
// it, and renames it into place.
func writeEntry(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: put: %w", err)
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".*.tmp")
	if err != nil {
		return fmt.Errorf("store: put: %w", err)
	}
	defer func() {
		if tmp != nil {
			tmp.Close()           //nolint:errcheck // error path
			os.Remove(tmp.Name()) //nolint:errcheck // error path
		}
	}()
	var hdr [headerSize]byte
	copy(hdr[:4], magic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(data)))
	binary.LittleEndian.PutUint32(hdr[8:12], crc32.ChecksumIEEE(data))
	if _, err := tmp.Write(hdr[:]); err != nil {
		return fmt.Errorf("store: put: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		return fmt.Errorf("store: put: %w", err)
	}
	// Sync before rename: the rename must not become visible before the
	// bytes are durable, or a crash could leave a torn "complete" entry.
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("store: put: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: put: %w", err)
	}
	name := tmp.Name()
	tmp = nil // disarm the cleanup; the file is complete
	if err := os.Rename(name, path); err != nil {
		os.Remove(name) //nolint:errcheck // best-effort
		return fmt.Errorf("store: put: %w", err)
	}
	return nil
}

// readEntry reads and verifies one entry file.
func readEntry(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) < headerSize || [4]byte(raw[:4]) != magic {
		return nil, fmt.Errorf("store: %s: bad header", filepath.Base(path))
	}
	n := binary.LittleEndian.Uint32(raw[4:8])
	sum := binary.LittleEndian.Uint32(raw[8:12])
	payload := raw[headerSize:]
	if uint32(len(payload)) != n {
		return nil, fmt.Errorf("store: %s: truncated (%d of %d payload bytes)", filepath.Base(path), len(payload), n)
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fmt.Errorf("store: %s: CRC mismatch", filepath.Base(path))
	}
	return payload, nil
}
