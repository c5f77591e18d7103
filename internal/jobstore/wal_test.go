package jobstore

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// churn moves a job through enqueue → running → done, leaving three WAL
// records of which two are dead.
func churn(t *testing.T, s *Store) Job {
	t.Helper()
	j, err := s.Enqueue(json.RawMessage(`{}`), 1)
	if err != nil {
		t.Fatal(err)
	}
	run, _, err := s.Lease("", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.MarkDone(run.ID, run.Fence, nil); err != nil {
		t.Fatal(err)
	}
	return j
}

func TestOpenCompactsMostlyDeadWAL(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{CompactEvery: -1})
	for i := 0; i < 4; i++ {
		churn(t, s) // 3 records per job, 1 live
	}
	if got := s.Records(); got != 12 {
		t.Fatalf("records before restart = %d, want 12", got)
	}
	s.Close()

	s2 := open(t, dir, Options{CompactEvery: -1})
	if got := s2.Records(); got != 4 {
		t.Fatalf("records after restart = %d, want 4 (compacted)", got)
	}
	if got := len(s2.List("")); got != 4 {
		t.Fatalf("jobs after compacting restart = %d", got)
	}
}

func TestOpenLeavesHealthyWALAlone(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{CompactEvery: -1})
	s.Enqueue(json.RawMessage(`1`), 1)
	s.Enqueue(json.RawMessage(`2`), 1)
	s.Close()

	path := filepath.Join(dir, walName)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir, Options{CompactEvery: -1})
	s2.Close()
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("Open rewrote a WAL with no dead records")
	}
}

func TestEvictCompactsWAL(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{CompactEvery: -1})
	for i := 0; i < 4; i++ {
		churn(t, s)
	}
	keep, _ := s.Enqueue(json.RawMessage(`{"keep":true}`), 1)

	n, err := s.EvictCompleted(0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("evicted = %d", n)
	}
	// 12 churn records + 1 keep + 4 tombstones = 17 total, 1 live: the
	// eviction itself must have triggered a compaction.
	if got := s.Records(); got != 1 {
		t.Fatalf("records after eviction = %d, want 1", got)
	}
	fi, err := os.Stat(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.WALSize(); got != fi.Size() {
		t.Fatalf("WALSize = %d, file = %d", got, fi.Size())
	}
	if _, ok := s.Get(keep.ID); !ok {
		t.Fatal("live job lost in post-evict compaction")
	}
}

func TestWALSizeTracksAppends(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{CompactEvery: -1})
	if got := s.WALSize(); got != 0 {
		t.Fatalf("fresh WALSize = %d", got)
	}
	s.Enqueue(json.RawMessage(`{"m":1}`), 1)
	s.Enqueue(json.RawMessage(`{"m":2}`), 1)
	fi, err := os.Stat(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.WALSize(); got != fi.Size() || got == 0 {
		t.Fatalf("WALSize = %d, file = %d", got, fi.Size())
	}

	// A restart recomputes the same size from replay.
	s.Close()
	s2 := open(t, dir, Options{CompactEvery: -1})
	if got := s2.WALSize(); got != fi.Size() {
		t.Fatalf("WALSize after restart = %d, file = %d", got, fi.Size())
	}
}

func TestMemoryOnlyWALSizeZero(t *testing.T) {
	s := open(t, "", Options{})
	s.Enqueue(json.RawMessage(`{}`), 1)
	if got := s.WALSize(); got != 0 {
		t.Fatalf("memory-only WALSize = %d", got)
	}
	if got := s.Records(); got != 0 {
		t.Fatalf("memory-only Records = %d", got)
	}
}

// TestCorruptWALOpenNeverPanics flips bits and truncates a real WAL at
// many offsets; Open must survive every mutation — recovering a prefix is
// fine, panicking or failing to open is not.
func TestCorruptWALOpenNeverPanics(t *testing.T) {
	build := func(dir string) []byte {
		s := open(t, dir, Options{CompactEvery: -1})
		for i := 0; i < 3; i++ {
			churn(t, s)
		}
		s.Enqueue(json.RawMessage(`{"tail":true}`), 2)
		s.Close()
		b, err := os.ReadFile(filepath.Join(dir, walName))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	pristine := build(t.TempDir())
	if len(pristine) < 32 {
		t.Fatalf("WAL too small to corrupt: %d bytes", len(pristine))
	}

	reopen := func(name string, mutate func([]byte) []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walName), mutate(append([]byte(nil), pristine...)), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("%s: Open failed: %v", name, err)
		}
		// The surviving store must stay usable end to end.
		j, err := s.Enqueue(json.RawMessage(`{"post":true}`), 1)
		if err != nil {
			t.Fatalf("%s: enqueue after recovery: %v", name, err)
		}
		if _, ok := s.Get(j.ID); !ok {
			t.Fatalf("%s: job lost after recovery", name)
		}
		s.Close()

		// And the recovered WAL must itself replay cleanly.
		s2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("%s: second Open failed: %v", name, err)
		}
		if _, ok := s2.Get(j.ID); !ok {
			t.Fatalf("%s: post-recovery append lost on restart", name)
		}
		s2.Close()
	}

	step := len(pristine)/16 + 1
	for off := 0; off < len(pristine); off += step {
		off := off
		reopen("bitflip", func(b []byte) []byte { b[off] ^= 0x40; return b })
		if off > 0 {
			reopen("truncate", func(b []byte) []byte { return b[:off] })
		}
	}
	reopen("zeroed-tail", func(b []byte) []byte {
		for i := len(b) / 2; i < len(b); i++ {
			b[i] = 0
		}
		return b
	})
}
