// Package resultstore is the versioned result store: a thin commit layer
// over the content-addressed chunk store (internal/cas). Every value —
// a solve response, a benchmark campaign — is committed as an immutable
// CAS blob, and each key carries a linear history of commits
// with parent pointers, so the store can answer both "what is the current
// result for this model?" (fetch-by-hash cache peering) and "how did this
// campaign's allocation change, and why?" (hslb log / hslb diff).
//
// Key namespaces by convention:
//
//	solve/<ampl-canonical-digest>  solve responses, internal/neos
//	gather/<campaign-id>           raw benchmark campaign data, internal/bench
//	campaign/<campaign-id>         full pipeline outcomes, cmd/hslb
//
// Commits are themselves CAS blobs (canonical JSON, so equal commits have
// equal hashes); only the per-key head pointer is mutable, kept in a
// small JSONL heads log replayed at Open. Opening the store pins every
// reachable commit and value in the chunk store, so GC only reclaims
// history explicitly truncated by GC(keep).
package resultstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"hslb/internal/cas"
	"hslb/internal/clock"
	"hslb/internal/jsonl"
)

// Commit is one immutable history entry for a key.
type Commit struct {
	// Hash is the commit's own CAS address, filled on load/commit and not
	// part of the encoded record.
	Hash string `json:"-"`
	// Key is the namespaced key this commit belongs to.
	Key string `json:"key"`
	// Parent is the previous commit's hash ("" for the first commit).
	Parent string `json:"parent,omitempty"`
	// Value is the CAS address of the committed value.
	Value string `json:"value"`
	// Seq is the 1-based position in the key's history.
	Seq int `json:"seq"`
	// Unix is the commit time in Unix seconds.
	Unix int64 `json:"unix"`
	// Meta carries small caller-defined annotations (campaign seed,
	// completeness markers, quality flags). encoding/json sorts map keys,
	// keeping the encoding canonical.
	Meta map[string]string `json:"meta,omitempty"`
}

// Options configures a Store.
type Options struct {
	// Sync fsyncs every chunk (and its directory) and every heads-log
	// append before the commit returns, so a committed head survives a
	// power loss.
	Sync bool
	// clock stamps commits (nil = clock.Wall); tests set it.
	clock clock.Clock
}

// Sentinel errors.
var (
	ErrNoKey    = errors.New("resultstore: no such key")
	ErrNoCommit = errors.New("resultstore: no such commit")
)

// headsName is the JSONL log of per-key head pointers.
const headsName = "heads.log"

type headRecord struct {
	Key  string `json:"key"`
	Head string `json:"head"`
}

// Store is the versioned result store. All methods are safe for
// concurrent use.
type Store struct {
	mu    sync.Mutex
	chunk *cas.Store
	opts  Options
	heads map[string]string // key -> head commit hash
	// headLog is the heads log (live + superseded records); nil once
	// closed.
	headLog *jsonl.Log
	commits int64 // commits written this process lifetime
}

// Open loads (or creates) a store rooted at dir: chunks under dir/chunks,
// head pointers in dir/heads.log. Every commit chain reachable from a
// head is pinned in the chunk store, so unreferenced chunks (from
// truncated history or torn writes) are GC fodder.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, errors.New("resultstore: empty directory")
	}
	opts.clock = clock.Or(opts.clock)
	// cas.Open creates dir along with dir/chunks, syncing both when asked.
	chunk, err := cas.Open(filepath.Join(dir, "chunks"), cas.Options{Sync: opts.Sync})
	if err != nil {
		return nil, err
	}
	s := &Store{chunk: chunk, opts: opts, heads: map[string]string{}}
	s.headLog, err = jsonl.Open(filepath.Join(dir, headsName), opts.Sync, s.replayHead)
	if err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	// Pin everything reachable. Heads whose chain no longer loads (a crash
	// between chunk write and head write, or corruption) are dropped
	// rather than left pointing into the void.
	for key, head := range s.heads {
		if err := s.pinChain(head); err != nil {
			delete(s.heads, key)
		}
	}
	if s.headLog.Records() > 2*len(s.heads) {
		if err := s.compactHeadsLocked(); err != nil {
			s.headLog.Close()
			return nil, err
		}
	}
	return s, nil
}

// replayHead applies one heads-log record; the last record per key wins.
// A torn or corrupt line stops the replay, and the log is cut back to the
// records before it.
func (s *Store) replayHead(line []byte) bool {
	var rec headRecord
	if json.Unmarshal(line, &rec) != nil || rec.Key == "" {
		return false
	}
	s.heads[rec.Key] = rec.Head
	return true
}

// pinChain pins every commit and value from head back to the root. A
// chain that ends early at a missing parent is fine — that is what
// GC-truncated history looks like; only an unreadable head is an error.
func (s *Store) pinChain(head string) error {
	for cur := head; cur != ""; {
		c, err := s.loadCommit(cur)
		if err != nil {
			if cur != head {
				return nil // truncated history: retained prefix is pinned
			}
			return err
		}
		vh, err := cas.ParseHash(c.Value)
		if err != nil {
			return err
		}
		if _, err := s.chunk.Get(vh); err != nil {
			return err // the value is missing or does not verify
		}
		ch, _ := cas.ParseHash(cur)
		if err := s.chunk.Pin(ch); err != nil {
			return err
		}
		if err := s.chunk.Pin(vh); err != nil {
			return err
		}
		cur = c.Parent
	}
	return nil
}

// Close flushes and closes the heads log. Committed data stays on disk.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.headLog == nil {
		return nil
	}
	err := s.headLog.Close()
	s.headLog = nil
	return err
}

// CAS exposes the underlying chunk store (for /blob serving and fsck).
func (s *Store) CAS() *cas.Store { return s.chunk }

// Commit stores value as the new head of key, chaining to the current
// head. Committing a value byte-identical to the current head is a no-op
// that returns the existing head commit — histories record change, not
// traffic.
func (s *Store) Commit(key string, value []byte, meta map[string]string) (Commit, error) {
	if key == "" || strings.ContainsAny(key, "\n") {
		return Commit{}, fmt.Errorf("resultstore: bad key %q", key)
	}
	// The value and commit chunks are written and pinned under s.mu, which
	// GC's sweep holds too, so no sweep falls between a Put and its Pin.
	// cas.Put writes under the chunk store's own lock anyway, so holding
	// s.mu across it serializes no writes that could run in parallel.
	s.mu.Lock()
	defer s.mu.Unlock()
	vh, err := s.chunk.Put(value)
	if err != nil {
		return Commit{}, err
	}
	var parent string
	seq := 1
	if head, ok := s.heads[key]; ok {
		hc, err := s.loadCommit(head)
		if err != nil {
			return Commit{}, err
		}
		if hc.Value == vh.String() {
			return hc, nil
		}
		parent = head
		seq = hc.Seq + 1
	}
	c := Commit{
		Key:    key,
		Parent: parent,
		Value:  vh.String(),
		Seq:    seq,
		Unix:   s.opts.clock.Now().Unix(),
		Meta:   meta,
	}
	enc, err := json.Marshal(c)
	if err != nil {
		return Commit{}, fmt.Errorf("resultstore: encode commit: %w", err)
	}
	ch, err := s.chunk.Put(enc)
	if err != nil {
		return Commit{}, err
	}
	c.Hash = ch.String()
	if err := s.chunk.Pin(ch); err != nil {
		return Commit{}, err
	}
	if err := s.chunk.Pin(vh); err != nil {
		return Commit{}, err
	}
	if err := s.setHeadLocked(headRecord{Key: key, Head: c.Hash}); err != nil {
		return Commit{}, err
	}
	s.commits++
	return c, nil
}

// setHeadLocked appends rec to the heads log and makes it the key's head,
// then compacts the log when due; the compaction writes s.heads, so the
// new head must be in it first.
func (s *Store) setHeadLocked(rec headRecord) error {
	if s.headLog == nil {
		return errors.New("resultstore: closed")
	}
	if err := s.headLog.Append(rec); err != nil {
		return fmt.Errorf("resultstore: append head: %w", err)
	}
	s.heads[rec.Key] = rec.Head
	if s.headLog.Records() > 2*len(s.heads)+16 {
		return s.compactHeadsLocked()
	}
	return nil
}

// compactHeadsLocked rewrites the heads log to one record per key.
func (s *Store) compactHeadsLocked() error {
	err := s.headLog.Rewrite(func(enc *json.Encoder) error {
		for _, key := range s.keysLocked() {
			if err := enc.Encode(headRecord{Key: key, Head: s.heads[key]}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("resultstore: compact heads: %w", err)
	}
	return nil
}

// loadCommit fetches and decodes one commit blob.
func (s *Store) loadCommit(hash string) (Commit, error) {
	h, err := cas.ParseHash(hash)
	if err != nil {
		return Commit{}, fmt.Errorf("%w: %v", ErrNoCommit, err)
	}
	b, err := s.chunk.Get(h)
	if err != nil {
		return Commit{}, fmt.Errorf("%w: %s: %v", ErrNoCommit, hash, err)
	}
	var c Commit
	if err := json.Unmarshal(b, &c); err != nil {
		return Commit{}, fmt.Errorf("%w: %s: %v", ErrNoCommit, hash, err)
	}
	c.Hash = hash
	return c, nil
}

// ResolveCommit finds a commit by full hash, unique hash prefix (≥ 4
// chars), or key name (resolving to the key's head).
func (s *Store) ResolveCommit(ref string) (Commit, error) {
	if c, ok := s.Head(ref); ok {
		return c, nil
	}
	if len(ref) == 2*cas.HashSize {
		return s.loadCommit(ref)
	}
	if len(ref) >= 4 {
		// Prefix search over all reachable commits.
		var match string
		for _, key := range s.Keys() {
			log, err := s.Log(key, 0)
			if err != nil {
				continue
			}
			for _, c := range log {
				if strings.HasPrefix(c.Hash, ref) {
					if match != "" && match != c.Hash {
						return Commit{}, fmt.Errorf("resultstore: ambiguous commit prefix %q", ref)
					}
					match = c.Hash
				}
			}
		}
		if match != "" {
			return s.loadCommit(match)
		}
	}
	return Commit{}, fmt.Errorf("%w: %s", ErrNoCommit, ref)
}

// Head returns the newest commit for key.
func (s *Store) Head(key string) (Commit, bool) {
	s.mu.Lock()
	head, ok := s.heads[key]
	s.mu.Unlock()
	if !ok {
		return Commit{}, false
	}
	c, err := s.loadCommit(head)
	if err != nil {
		return Commit{}, false
	}
	return c, true
}

// Log returns key's history, newest first, up to limit commits (0 = all).
// A history truncated by GC ends at the oldest retained commit.
func (s *Store) Log(key string, limit int) ([]Commit, error) {
	s.mu.Lock()
	head, ok := s.heads[key]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoKey, key)
	}
	var out []Commit
	for cur := head; cur != ""; {
		c, err := s.loadCommit(cur)
		if err != nil {
			// Parent truncated by GC: the retained history ends here.
			break
		}
		out = append(out, c)
		if limit > 0 && len(out) >= limit {
			break
		}
		cur = c.Parent
	}
	return out, nil
}

// Value fetches the committed value bytes of a commit.
func (s *Store) Value(c Commit) ([]byte, error) {
	h, err := cas.ParseHash(c.Value)
	if err != nil {
		return nil, err
	}
	return s.chunk.Get(h)
}

// HeadValue fetches the current value bytes for key.
func (s *Store) HeadValue(key string) ([]byte, Commit, error) {
	c, ok := s.Head(key)
	if !ok {
		return nil, Commit{}, fmt.Errorf("%w: %s", ErrNoKey, key)
	}
	v, err := s.Value(c)
	return v, c, err
}

// Keys returns every key with a head, sorted.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.keysLocked()
}

func (s *Store) keysLocked() []string {
	out := make([]string, 0, len(s.heads))
	for k := range s.heads {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// KeysWithPrefix returns every key under a namespace prefix, sorted.
func (s *Store) KeysWithPrefix(prefix string) []string {
	var out []string
	for _, k := range s.Keys() {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	return out
}

// GC truncates every key's history to its newest keep commits
// (keep <= 0 keeps everything), unpins what fell off, and sweeps the
// chunk store under the store lock, so the sweep never runs inside a
// Commit. Returns reclaimed chunks and bytes.
func (s *Store) GC(keep int) (int, int64, error) {
	if keep > 0 {
		for _, key := range s.Keys() {
			log, err := s.Log(key, 0)
			if err != nil {
				continue
			}
			// The newest retained commit keeps its (immutable) parent
			// pointer; Log tolerates the missing parent and treats it as
			// the end of retained history.
			for i := keep; i < len(log); i++ {
				c := log[i]
				ch, _ := cas.ParseHash(c.Hash)
				vh, _ := cas.ParseHash(c.Value)
				_ = s.chunk.Unpin(ch)
				_ = s.chunk.Unpin(vh)
			}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.chunk.GC()
}

// Stats is the store's metrics snapshot.
type Stats struct {
	cas.Stats
	Keys    int   `json:"keys"`
	Commits int64 `json:"commits"` // commits written this process lifetime
}

// Stats returns a snapshot of store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	keys := len(s.heads)
	commits := s.commits
	s.mu.Unlock()
	return Stats{Stats: s.chunk.Stats(), Keys: keys, Commits: commits}
}

// Fsck verifies the chunk store (every file re-hashed and its tag
// checked) and then walks every head chain, checking that each commit
// decodes and its value is intact. Problems are appended to the CAS
// report with the owning key as context.
func (s *Store) Fsck() (*cas.FsckReport, error) {
	rep, err := s.chunk.Fsck()
	if err != nil {
		return nil, err
	}
	for _, key := range s.Keys() {
		s.mu.Lock()
		head := s.heads[key]
		s.mu.Unlock()
		for cur := head; cur != ""; {
			c, err := s.loadCommit(cur)
			if err != nil {
				if cur != head && missingEntirely(s, cur) {
					break // history truncated by GC, not corruption
				}
				rep.Corruption = append(rep.Corruption, cas.Corruption{
					Hash: cur, Path: "key " + key,
					Reason: "commit unreadable: " + err.Error(),
				})
				break
			}
			if _, err := s.Value(c); err != nil {
				rep.Corruption = append(rep.Corruption, cas.Corruption{
					Hash: c.Value, Path: "key " + key,
					Reason: fmt.Sprintf("value of commit %s unreadable: %v", short(cur), err),
				})
			}
			cur = c.Parent
		}
	}
	return rep, nil
}

// missingEntirely reports whether a commit chunk is absent altogether
// (GC truncation) as opposed to present-but-corrupt.
func missingEntirely(s *Store, hash string) bool {
	h, err := cas.ParseHash(hash)
	if err != nil {
		return false
	}
	return !s.chunk.Has(h)
}

// short abbreviates a commit hash for messages.
func short(hash string) string {
	if len(hash) > 12 {
		return hash[:12]
	}
	return hash
}
