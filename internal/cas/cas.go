// Package cas implements a content-addressed blob store — the persistence
// foundation of the result store. Every value, of any size, is stored as
// one chunk addressed by the SHA-256 of its payload and written once:
// equal values share one file on disk (dedup), and a value's address is a
// function of its bytes alone, so a fetched value can be verified end to
// end against its name.
//
// On-disk layout (under the store directory):
//
//	ab/cdef0123...  one file per chunk, path = hex hash fan-out by the
//	                first byte; file content = the chunk payload.
//
// Chunk payload framing: the first byte is the type tag 'L' (leaf) and
// the value's bytes follow. Put writes nothing else. Stores written by
// earlier versions can also hold chunk trees, whose 'N' nodes are read but
// never written (legacy.go); any other tag is reported as corrupt.
//
// The store keeps an in-memory index (hash → size, refcount) rebuilt by
// scanning the directory at Open. Reference counts are owned by callers
// via Pin/Unpin; GC deletes chunks whose refcount is zero, and Fsck
// re-hashes every chunk file and checks its tag to detect corruption (bit
// flips, truncation, foreign files, a legacy node's missing children).
package cas

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"hslb/internal/jsonl"
)

// HashSize is the size of a chunk address in bytes.
const HashSize = sha256.Size

// Hash is a chunk or value address: the SHA-256 of the chunk payload.
type Hash [HashSize]byte

// String renders the hash as lowercase hex.
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// ParseHash decodes a 64-character hex string into a Hash.
func ParseHash(s string) (Hash, error) {
	var h Hash
	if len(s) != 2*HashSize {
		return h, fmt.Errorf("cas: bad hash length %d (want %d hex chars)", len(s), 2*HashSize)
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return h, fmt.Errorf("cas: bad hash: %w", err)
	}
	copy(h[:], b)
	return h, nil
}

// tagLeaf is the type tag every chunk payload starts with.
const tagLeaf = 'L'

// Options configures a Store.
type Options struct {
	// Sync fsyncs every new chunk file before it is linked into place, and
	// its directory after, so the link itself is durable; a directory the
	// store creates — the store directory at Open, a fan-out directory on
	// a write — is synced into its parent too. Off by default: chunks are
	// written via tmp-file + rename, so a crash can lose recent chunks but
	// never corrupts existing ones.
	Sync bool
}

// Sentinel errors.
var (
	ErrNotFound = errors.New("cas: chunk not found")
	ErrCorrupt  = errors.New("cas: corrupt chunk")
)

type chunkMeta struct {
	size int64 // payload bytes on disk
	refs int
	kids []Hash // a legacy node's children, nil for a leaf
}

// Stats is a snapshot of the store counters.
type Stats struct {
	// Chunks and StoredBytes describe what is on disk: unique chunks and
	// the sum of their payload sizes.
	Chunks      int   `json:"chunks"`
	StoredBytes int64 `json:"stored_bytes"`
	// LogicalBytes is the cumulative size of all values written through
	// Put this process lifetime, counting duplicates. NewBytes is the
	// payload bytes of the chunk files those Puts had to create (the tag
	// byte included); LogicalBytes / NewBytes is the dedup ratio.
	LogicalBytes int64 `json:"logical_bytes"`
	NewBytes     int64 `json:"new_bytes"`
	// DedupHits counts Puts that wrote nothing because the chunk already
	// existed.
	DedupHits int64 `json:"dedup_hits"`
	Pinned    int   `json:"pinned"`
}

// DedupRatio returns logical bytes written per new stored byte this
// process lifetime (about 1.0 = no dedup). It is 0 when no new chunk was
// written — on an idle store, and on one that only re-stored values it
// already held, which LogicalBytes tells apart.
func (s Stats) DedupRatio() float64 {
	if s.NewBytes == 0 {
		return 0
	}
	return float64(s.LogicalBytes) / float64(s.NewBytes)
}

// Store is a content-addressed chunk store rooted at one directory. All
// methods are safe for concurrent use.
type Store struct {
	mu   sync.Mutex
	dir  string
	opts Options
	idx  map[Hash]*chunkMeta

	logicalBytes int64
	newBytes     int64
	dedupHits    int64
}

// Open scans dir (creating it, and any missing parents, if needed) and
// builds the chunk index. Files whose names do not parse as chunk paths
// are ignored; payloads are verified by Fsck, not here, and only a file of
// a legacy node's size is read, for the children it may list.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, errors.New("cas: empty store directory")
	}
	if err := jsonl.MkdirAll(dir, opts.Sync); err != nil {
		return nil, fmt.Errorf("cas: %w", err)
	}
	s := &Store{dir: dir, opts: opts, idx: map[Hash]*chunkMeta{}}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		h, ok := s.hashOfPath(path)
		if !ok {
			return nil // tmp file or foreign debris; Fsck reports it
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		s.idx[h] = &chunkMeta{size: info.Size(), kids: legacyKids(path, h, info.Size())}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cas: scan: %w", err)
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) chunkPath(h Hash) string {
	hx := h.String()
	return filepath.Join(s.dir, hx[:2], hx[2:])
}

// hashOfPath inverts chunkPath; ok is false for paths that are not chunk
// files (tmp files, stray names).
func (s *Store) hashOfPath(path string) (Hash, bool) {
	rel, err := filepath.Rel(s.dir, path)
	if err != nil {
		return Hash{}, false
	}
	fan, name := filepath.Split(rel)
	fan = filepath.Clean(fan)
	if len(fan) != 2 || len(name) != 2*HashSize-2 {
		return Hash{}, false
	}
	h, err := ParseHash(fan + name)
	if err != nil {
		return Hash{}, false
	}
	return h, true
}

// Put stores data as one chunk and returns its address, SHA-256('L' ‖
// data). A value the store already holds is not rewritten.
func (s *Store) Put(data []byte) (Hash, error) {
	payload := make([]byte, 0, 1+len(data))
	payload = append(payload, tagLeaf)
	payload = append(payload, data...)
	h := Hash(sha256.Sum256(payload))

	s.mu.Lock()
	defer s.mu.Unlock()
	s.logicalBytes += int64(len(data))
	if _, ok := s.idx[h]; ok {
		s.dedupHits++
		return h, nil
	}
	path := s.chunkPath(h)
	dir := filepath.Dir(path)
	// The fan-out directories are made lazily.
	if err := jsonl.MkdirAll(dir, s.opts.Sync); err != nil {
		return Hash{}, fmt.Errorf("cas: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return Hash{}, fmt.Errorf("cas: %w", err)
	}
	if _, err := tmp.Write(payload); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return Hash{}, fmt.Errorf("cas: write chunk: %w", err)
	}
	if s.opts.Sync {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return Hash{}, fmt.Errorf("cas: sync chunk: %w", err)
		}
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return Hash{}, fmt.Errorf("cas: close chunk: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return Hash{}, fmt.Errorf("cas: link chunk: %w", err)
	}
	if s.opts.Sync {
		if err := jsonl.SyncDir(dir); err != nil {
			return Hash{}, fmt.Errorf("cas: sync chunk directory: %w", err)
		}
	}
	s.idx[h] = &chunkMeta{size: int64(len(payload))}
	s.newBytes += int64(len(payload))
	return h, nil
}

// Has reports whether a chunk exists in the index.
func (s *Store) Has(h Hash) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.idx[h]
	return ok
}

// Get returns the value addressed by h, verifying its chunk (and every
// chunk under a legacy node) against its address. A missing chunk returns
// ErrNotFound; one whose content no longer matches its name, or whose tag
// or framing is bad, ErrCorrupt — a corrupted value is never served.
func (s *Store) Get(h Hash) ([]byte, error) {
	if !s.Has(h) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, h)
	}
	payload, err := os.ReadFile(s.chunkPath(h))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, h)
	}
	if err != nil {
		return nil, fmt.Errorf("cas: read chunk %s: %w", h, err)
	}
	if sha256.Sum256(payload) != h {
		return nil, fmt.Errorf("%w: %s: content does not match address", ErrCorrupt, h)
	}
	if reason := badTag(payload); reason != "" {
		return nil, fmt.Errorf("%w: %s: %s", ErrCorrupt, h, reason)
	}
	if kids, ok := nodeKids(payload); ok {
		return s.assemble(kids)
	}
	return payload[1:], nil
}

// badTag says why a payload that matches its address is still not a
// value's chunk, or returns "" for a leaf or a well-formed legacy node.
func badTag(payload []byte) string {
	switch {
	case len(payload) == 0:
		return "empty payload"
	case payload[0] == tagLeaf:
		return ""
	case payload[0] != tagNode:
		return fmt.Sprintf("unknown chunk tag %q", payload[0])
	}
	if _, ok := nodeKids(payload); !ok {
		return "malformed legacy chunk-tree node"
	}
	return ""
}

// Pin increments h's refcount, protecting its chunk — and, for a legacy
// node, every chunk under it — from GC. Pins are in-memory only: after a
// restart the owner (the result store's head index) re-pins what it
// keeps. A chunk the store does not hold is ErrNotFound.
func (s *Store) Pin(h Hash) error { return s.addRef(h, +1) }

// Unpin reverses one Pin of h.
func (s *Store) Unpin(h Hash) error { return s.addRef(h, -1) }

func (s *Store) addRef(h Hash, delta int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.idx[h]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, h)
	}
	// Children are recorded only from nodes that verified against their
	// address, so this walk under a legacy node cannot cycle.
	for todo := []Hash{h}; len(todo) > 0; {
		m, ok := s.idx[todo[0]]
		todo = todo[1:]
		if ok {
			m.refs = max(m.refs+delta, 0)
			todo = append(todo, m.kids...)
		}
	}
	return nil
}

// GC deletes every chunk whose refcount is zero, returning how many
// chunks and payload bytes were reclaimed.
func (s *Store) GC() (int, int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int
	var bytesFreed int64
	for h, m := range s.idx {
		if m.refs > 0 {
			continue
		}
		if err := os.Remove(s.chunkPath(h)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return n, bytesFreed, fmt.Errorf("cas: gc: %w", err)
		}
		delete(s.idx, h)
		n++
		bytesFreed += m.size
	}
	return n, bytesFreed, nil
}

// Stats returns a snapshot of the store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Chunks:       len(s.idx),
		LogicalBytes: s.logicalBytes,
		NewBytes:     s.newBytes,
		DedupHits:    s.dedupHits,
	}
	for _, m := range s.idx {
		st.StoredBytes += m.size
		if m.refs > 0 {
			st.Pinned++
		}
	}
	return st
}

// Corruption is one problem Fsck found.
type Corruption struct {
	Hash   string `json:"hash,omitempty"`
	Path   string `json:"path"`
	Reason string `json:"reason"`
}

// FsckReport summarizes an integrity walk.
type FsckReport struct {
	Chunks     int          `json:"chunks"`
	Bytes      int64        `json:"bytes"`
	Corruption []Corruption `json:"corruption,omitempty"`
}

// OK reports whether the walk found no problems.
func (r *FsckReport) OK() bool { return len(r.Corruption) == 0 }

// Fsck walks the store directory, re-hashing every chunk file against its
// name, checking its tag, and checking that a legacy node's children are
// on disk. Files in the tree that are not chunk files
// are reported too. The walk reads the filesystem, not the index, so
// corruption introduced behind a running store is found; it visits files
// in lexical order, so the report is sorted by path.
func (s *Store) Fsck() (*FsckReport, error) {
	rep := &FsckReport{}
	err := filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			return nil
		}
		h, ok := s.hashOfPath(path)
		if !ok {
			rep.Corruption = append(rep.Corruption, Corruption{
				Path: path, Reason: "not a chunk file",
			})
			return nil
		}
		payload, err := os.ReadFile(path)
		if err != nil {
			rep.Corruption = append(rep.Corruption, Corruption{
				Hash: h.String(), Path: path, Reason: "unreadable: " + err.Error(),
			})
			return nil
		}
		rep.Chunks++
		rep.Bytes += int64(len(payload))
		reason := badTag(payload)
		if sha256.Sum256(payload) != h {
			reason = "content does not match address"
		} else if kids, ok := nodeKids(payload); ok {
			reason = s.missingKid(kids)
		}
		if reason != "" {
			rep.Corruption = append(rep.Corruption, Corruption{
				Hash: h.String(), Path: path, Reason: reason,
			})
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cas: fsck walk: %w", err)
	}
	return rep, nil
}
