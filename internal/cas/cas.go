// Package cas implements a chunked, content-addressed blob store — the
// persistence foundation of the result store. Values of any size are
// split into fixed-size chunks, each addressed by the SHA-256 of its
// payload and written once: identical chunks across values share one file
// on disk (dedup), and a value's address is the hash of the root of its
// chunk tree, so equal values always have equal addresses and a fetched
// value can be verified end to end against its name.
//
// On-disk layout (under the store directory):
//
//	ab/cdef0123...  one file per chunk, path = hex hash fan-out by the
//	                first byte; file content = the chunk payload.
//
// Chunk payload framing: the first byte is a type tag — 'L' for a leaf
// (raw value bytes follow) or 'N' for an interior node (a concatenation
// of 32-byte child hashes follows). A value ≤ ChunkSize is a single leaf;
// larger values become a tree of nodes over leaves. The tag is inside the
// hashed payload, so a leaf can never collide with a node.
//
// The store keeps an in-memory index (hash → size, refcount) rebuilt by
// scanning the directory at Open. Reference counts are owned by callers
// via Pin/Unpin on roots; GC deletes chunks whose refcount is zero, and
// Fsck re-hashes every chunk file and walks every node to detect
// corruption (bit flips, truncation, missing children).
package cas

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// HashSize is the size of a chunk address in bytes.
const HashSize = sha256.Size

// Hash is a chunk or value address: the SHA-256 of the chunk payload.
type Hash [HashSize]byte

// String renders the hash as lowercase hex.
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// IsZero reports whether the hash is the zero value (no address).
func (h Hash) IsZero() bool { return h == Hash{} }

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

// Chunk payload type tags.
const (
	tagLeaf = 'L'
	tagNode = 'N'
)

// DefaultChunkSize is the leaf payload size Put splits values at.
const DefaultChunkSize = 64 << 10

// Options configures a Store.
type Options struct {
	// ChunkSize is the maximum leaf data size in bytes
	// (default DefaultChunkSize; minimum 64).
	ChunkSize int
	// Sync fsyncs every new chunk file before it is linked into place, and
	// its directory after, so the link itself is durable; a fan-out
	// directory the write creates is synced into the store's directory
	// too. Off by default: chunks are written via tmp-file + rename, so a
	// crash can lose recent chunks but never corrupts existing ones.
	Sync bool
}

func (o Options) withDefaults() Options {
	if o.ChunkSize <= 0 {
		o.ChunkSize = DefaultChunkSize
	}
	if o.ChunkSize < 64 {
		o.ChunkSize = 64
	}
	return o
}

// Sentinel errors.
var (
	ErrNotFound = errors.New("cas: chunk not found")
	ErrCorrupt  = errors.New("cas: corrupt chunk")
)

type chunkMeta struct {
	size int64 // payload bytes on disk
	refs int
}

// Stats is a snapshot of the store counters.
type Stats struct {
	// Chunks and StoredBytes describe what is on disk: unique chunks and
	// the sum of their payload sizes.
	Chunks      int   `json:"chunks"`
	StoredBytes int64 `json:"stored_bytes"`
	// LogicalBytes is the cumulative size of all values written through
	// Put this process lifetime, counting duplicates; StoredBytes /
	// LogicalBytes of the same period is the dedup ratio. NewBytes is the
	// subset of LogicalBytes that required new chunk files.
	LogicalBytes int64 `json:"logical_bytes"`
	NewBytes     int64 `json:"new_bytes"`
	// DedupHits counts Put-time chunk writes skipped because the chunk
	// already existed.
	DedupHits int64 `json:"dedup_hits"`
	Pinned    int   `json:"pinned"`
}

// DedupRatio returns logical bytes written per stored byte this process
// lifetime (1.0 = no dedup; 0 when nothing was written).
func (s Stats) DedupRatio() float64 {
	if s.LogicalBytes == 0 || s.NewBytes == 0 {
		if s.LogicalBytes > 0 {
			return float64(s.LogicalBytes) // everything dedup'd
		}
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

// Open scans dir (creating it if needed) and builds the chunk index.
// Files whose names do not parse as chunk paths are ignored; payloads are
// not verified here — that is Fsck's job.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if dir == "" {
		return nil, errors.New("cas: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
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
		s.idx[h] = &chunkMeta{size: info.Size()}
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

// Put stores data and returns its address. Chunks that already exist are
// not rewritten, so storing the same (or a mostly-equal, for append-like
// growth) value again costs almost nothing on disk.
func (s *Store) Put(data []byte) (Hash, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.logicalBytes += int64(len(data))

	// Leaves.
	var level []Hash
	for off := 0; ; off += s.opts.ChunkSize {
		end := off + s.opts.ChunkSize
		if end > len(data) {
			end = len(data)
		}
		payload := make([]byte, 0, 1+end-off)
		payload = append(payload, tagLeaf)
		payload = append(payload, data[off:end]...)
		h, err := s.writeChunkLocked(payload)
		if err != nil {
			return Hash{}, err
		}
		level = append(level, h)
		if end == len(data) {
			break
		}
	}
	// Interior nodes until a single root remains.
	fanout := s.opts.ChunkSize / HashSize
	if fanout < 2 {
		fanout = 2
	}
	for len(level) > 1 {
		var next []Hash
		for i := 0; i < len(level); i += fanout {
			j := i + fanout
			if j > len(level) {
				j = len(level)
			}
			payload := make([]byte, 0, 1+(j-i)*HashSize)
			payload = append(payload, tagNode)
			for _, ch := range level[i:j] {
				payload = append(payload, ch[:]...)
			}
			h, err := s.writeChunkLocked(payload)
			if err != nil {
				return Hash{}, err
			}
			next = append(next, h)
		}
		level = next
	}
	return level[0], nil
}

// writeChunkLocked writes one payload if absent and indexes it.
func (s *Store) writeChunkLocked(payload []byte) (Hash, error) {
	h := Hash(sha256.Sum256(payload))
	if _, ok := s.idx[h]; ok {
		s.dedupHits++
		return h, nil
	}
	path := s.chunkPath(h)
	dir := filepath.Dir(path)
	// The fan-out directories are made lazily; a synced store also syncs
	// the new directory's entry in s.dir, once, when it makes one.
	var newDir bool
	if s.opts.Sync {
		_, err := os.Stat(dir)
		newDir = errors.Is(err, fs.ErrNotExist)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
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
		if err := syncDir(dir); err != nil {
			return Hash{}, fmt.Errorf("cas: sync chunk directory: %w", err)
		}
		if newDir {
			if err := syncDir(s.dir); err != nil {
				return Hash{}, fmt.Errorf("cas: sync store directory: %w", err)
			}
		}
	}
	s.idx[h] = &chunkMeta{size: int64(len(payload))}
	s.newBytes += int64(len(payload))
	return h, nil
}

// syncDir fsyncs a directory, making the renames into it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Has reports whether a chunk exists in the index.
func (s *Store) Has(h Hash) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.idx[h]
	return ok
}

// Get reassembles and returns the value addressed by h, verifying every
// chunk against its hash on the way. A missing chunk returns ErrNotFound;
// a chunk whose content no longer matches its name (or a malformed node)
// returns ErrCorrupt — a corrupted value is never silently served.
func (s *Store) Get(h Hash) ([]byte, error) {
	var out bytes.Buffer
	if err := s.assemble(h, &out, 0); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// maxDepth bounds node recursion; the tree for any realistic value is a
// few levels deep, so hitting this means a corrupt or adversarial cycle.
const maxDepth = 32

func (s *Store) assemble(h Hash, out *bytes.Buffer, depth int) error {
	if depth > maxDepth {
		return fmt.Errorf("%w: %s: chunk tree deeper than %d", ErrCorrupt, h, maxDepth)
	}
	payload, err := s.readChunk(h)
	if err != nil {
		return err
	}
	switch payload[0] {
	case tagLeaf:
		out.Write(payload[1:])
		return nil
	case tagNode:
		body := payload[1:]
		if len(body) == 0 || len(body)%HashSize != 0 {
			return fmt.Errorf("%w: %s: node body %d bytes", ErrCorrupt, h, len(body))
		}
		for i := 0; i < len(body); i += HashSize {
			var ch Hash
			copy(ch[:], body[i:i+HashSize])
			if err := s.assemble(ch, out, depth+1); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("%w: %s: unknown chunk tag %q", ErrCorrupt, h, payload[0])
	}
}

// readChunk loads one payload and verifies it against its address.
func (s *Store) readChunk(h Hash) ([]byte, error) {
	s.mu.Lock()
	_, ok := s.idx[h]
	s.mu.Unlock()
	if !ok {
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
	if len(payload) == 0 {
		return nil, fmt.Errorf("%w: %s: empty payload", ErrCorrupt, h)
	}
	return payload, nil
}

// children parses a payload's child hashes (empty for leaves).
func children(payload []byte) ([]Hash, error) {
	if len(payload) == 0 {
		return nil, errors.New("empty payload")
	}
	switch payload[0] {
	case tagLeaf:
		return nil, nil
	case tagNode:
		body := payload[1:]
		if len(body) == 0 || len(body)%HashSize != 0 {
			return nil, fmt.Errorf("node body %d bytes", len(body))
		}
		out := make([]Hash, 0, len(body)/HashSize)
		for i := 0; i < len(body); i += HashSize {
			var ch Hash
			copy(ch[:], body[i:i+HashSize])
			out = append(out, ch)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("unknown chunk tag %q", payload[0])
	}
}

// Pin increments the refcount of every chunk reachable from root,
// protecting the value from GC. Pins are in-memory only: after a restart
// the owner (the result store's head index) re-pins its roots.
func (s *Store) Pin(root Hash) error { return s.adjustRefs(root, +1) }

// Unpin reverses one Pin of root.
func (s *Store) Unpin(root Hash) error { return s.adjustRefs(root, -1) }

func (s *Store) adjustRefs(root Hash, delta int) error {
	// Collect the subtree first (reads release the lock per chunk), then
	// apply refcount deltas atomically.
	reach, err := s.reachable(root)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for h, n := range reach {
		m, ok := s.idx[h]
		if !ok {
			continue
		}
		m.refs += delta * n
		if m.refs < 0 {
			m.refs = 0
		}
	}
	return nil
}

// reachable returns every chunk under root with its multiplicity.
func (s *Store) reachable(root Hash) (map[Hash]int, error) {
	out := map[Hash]int{}
	var walk func(h Hash, depth int) error
	walk = func(h Hash, depth int) error {
		if depth > maxDepth {
			return fmt.Errorf("%w: %s: chunk tree deeper than %d", ErrCorrupt, h, maxDepth)
		}
		out[h]++
		if out[h] > 1 {
			return nil // shared subtree already walked
		}
		payload, err := s.readChunk(h)
		if err != nil {
			return err
		}
		kids, err := children(payload)
		if err != nil {
			return fmt.Errorf("%w: %s: %v", ErrCorrupt, h, err)
		}
		for _, ch := range kids {
			if err := walk(ch, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(root, 0); err != nil {
		return nil, err
	}
	return out, nil
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
// name, validating node structure, and checking that every node child
// exists. Files in the tree that are not chunk files are reported too.
// The walk reads the filesystem, not the index, so corruption introduced
// behind a running store is found.
func (s *Store) Fsck() (*FsckReport, error) {
	rep := &FsckReport{}
	type nodeRef struct {
		parent string
		child  Hash
	}
	var refs []nodeRef
	seen := map[Hash]bool{}
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
		if sha256.Sum256(payload) != h {
			rep.Corruption = append(rep.Corruption, Corruption{
				Hash: h.String(), Path: path, Reason: "content does not match address",
			})
			return nil
		}
		kids, kerr := children(payload)
		if kerr != nil {
			rep.Corruption = append(rep.Corruption, Corruption{
				Hash: h.String(), Path: path, Reason: "bad structure: " + kerr.Error(),
			})
			return nil
		}
		seen[h] = true
		for _, ch := range kids {
			refs = append(refs, nodeRef{parent: h.String(), child: ch})
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cas: fsck walk: %w", err)
	}
	for _, r := range refs {
		if !seen[r.child] {
			rep.Corruption = append(rep.Corruption, Corruption{
				Hash: r.child.String(), Path: s.chunkPath(r.child),
				Reason: "missing or corrupt child of node " + r.parent,
			})
		}
	}
	sort.Slice(rep.Corruption, func(i, j int) bool {
		if rep.Corruption[i].Path != rep.Corruption[j].Path {
			return rep.Corruption[i].Path < rep.Corruption[j].Path
		}
		return rep.Corruption[i].Reason < rep.Corruption[j].Reason
	})
	return rep, nil
}
