package resultstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"hslb/internal/cas"
	"hslb/internal/clock"
)

func openStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, Options{clock: clock.NewFake(time.Unix(1700000000, 0))})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestCommitHistory(t *testing.T) {
	s := openStore(t, t.TempDir())
	c1, err := s.Commit("campaign/a", []byte("v1"), map[string]string{"runs": "1"})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := s.Commit("campaign/a", []byte("v2"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Parent != c1.Hash || c2.Seq != 2 {
		t.Fatalf("bad chain: %+v after %+v", c2, c1)
	}
	log, err := s.Log("campaign/a", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(log) != 2 || log[0].Hash != c2.Hash || log[1].Hash != c1.Hash {
		t.Fatalf("log = %+v", log)
	}
	v, _, err := s.HeadValue("campaign/a")
	if err != nil || string(v) != "v2" {
		t.Fatalf("head value = %q, %v", v, err)
	}
	old, err := s.Value(log[1])
	if err != nil || string(old) != "v1" {
		t.Fatalf("old value = %q, %v", old, err)
	}
}

func TestIdenticalCommitIsNoop(t *testing.T) {
	s := openStore(t, t.TempDir())
	c1, _ := s.Commit("k", []byte("same"), nil)
	c2, err := s.Commit("k", []byte("same"), map[string]string{"ignored": "yes"})
	if err != nil {
		t.Fatal(err)
	}
	if c2.Hash != c1.Hash || c2.Seq != 1 {
		t.Fatalf("identical value created a new commit: %+v", c2)
	}
	if log, _ := s.Log("k", 0); len(log) != 1 {
		t.Fatalf("history grew: %d commits", len(log))
	}
}

func TestReopenRestoresHeads(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	s.Commit("solve/x", []byte("r1"), nil)
	c2, _ := s.Commit("solve/x", []byte("r2"), nil)
	s.Commit("campaign/y", []byte("c1"), nil)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir)
	head, ok := s2.Head("solve/x")
	if !ok || head.Hash != c2.Hash {
		t.Fatalf("head after reopen = %+v, %v", head, ok)
	}
	if keys := s2.Keys(); len(keys) != 2 {
		t.Fatalf("keys = %v", keys)
	}
	// History must survive too, and a further commit chains onto it.
	c3, err := s2.Commit("solve/x", []byte("r3"), nil)
	if err != nil || c3.Parent != c2.Hash || c3.Seq != 3 {
		t.Fatalf("commit after reopen: %+v, %v", c3, err)
	}
	if log, _ := s2.Log("solve/x", 0); len(log) != 3 {
		t.Fatalf("history length after reopen = %d", len(log))
	}
}

func TestKeysWithPrefix(t *testing.T) {
	s := openStore(t, t.TempDir())
	s.Commit("solve/a", []byte("1"), nil)
	s.Commit("solve/b", []byte("2"), nil)
	s.Commit("campaign/c", []byte("3"), nil)
	got := s.KeysWithPrefix("solve/")
	if len(got) != 2 || got[0] != "solve/a" || got[1] != "solve/b" {
		t.Fatalf("KeysWithPrefix = %v", got)
	}
}

func TestResolveCommit(t *testing.T) {
	s := openStore(t, t.TempDir())
	c1, _ := s.Commit("campaign/a", []byte("v1"), nil)
	c2, _ := s.Commit("campaign/a", []byte("v2"), nil)

	byKey, err := s.ResolveCommit("campaign/a")
	if err != nil || byKey.Hash != c2.Hash {
		t.Fatalf("resolve by key = %+v, %v", byKey, err)
	}
	byHash, err := s.ResolveCommit(c1.Hash)
	if err != nil || byHash.Hash != c1.Hash {
		t.Fatalf("resolve by hash = %+v, %v", byHash, err)
	}
	byPrefix, err := s.ResolveCommit(c1.Hash[:8])
	if err != nil || byPrefix.Hash != c1.Hash {
		t.Fatalf("resolve by prefix = %+v, %v", byPrefix, err)
	}
	if _, err := s.ResolveCommit("deadbeef"); err == nil {
		t.Fatal("unknown ref resolved")
	}
}

func TestGCKeepsRecentHistory(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	for i := 1; i <= 5; i++ {
		if _, err := s.Commit("k", []byte(strings.Repeat("v", 100*i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	n, freed, err := s.GC(2)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || freed == 0 {
		t.Fatal("GC(2) reclaimed nothing")
	}
	log, err := s.Log("k", 0)
	if err != nil || len(log) != 2 {
		t.Fatalf("retained history = %d commits, %v", len(log), err)
	}
	if v, _, err := s.HeadValue("k"); err != nil || len(v) != 500 {
		t.Fatalf("head value after GC: %d bytes, %v", len(v), err)
	}
	// Reopen: truncated history must still load cleanly.
	s.Close()
	s2 := openStore(t, dir)
	if log, err := s2.Log("k", 0); err != nil || len(log) != 2 {
		t.Fatalf("retained history after reopen = %d, %v", len(log), err)
	}
}

func TestTornHeadsLogRecovers(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	c1, _ := s.Commit("k", []byte("v1"), nil)
	s.Close()
	// Append a torn (half-written) head record.
	f, err := os.OpenFile(filepath.Join(dir, headsName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"key":"k","head":"012345`)
	f.Close()

	s2 := openStore(t, dir)
	head, ok := s2.Head("k")
	if !ok || head.Hash != c1.Hash {
		t.Fatalf("head after torn log = %+v, %v", head, ok)
	}
}

// TestCommitAfterTornHeadsLogSurvives: the commit made after recovering
// from a torn heads-log tail must itself survive the next reopen, so the
// torn bytes may not stay in front of it.
func TestCommitAfterTornHeadsLogSurvives(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if _, err := s.Commit("k", []byte("v1"), nil); err != nil {
		t.Fatal(err)
	}
	s.Close()
	f, err := os.OpenFile(filepath.Join(dir, headsName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"k","head":"012345`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := openStore(t, dir)
	c2, err := s2.Commit("k2", []byte("v2"), nil)
	if err != nil {
		t.Fatal(err)
	}
	s2.Close()

	s3 := openStore(t, dir)
	head, ok := s3.Head("k2")
	if !ok || head.Hash != c2.Hash {
		t.Fatalf("head of k2 after reopen = %+v, %v; want commit %s", head, ok, c2.Hash)
	}
}

func TestHeadPointingNowhereIsDropped(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	s.Commit("k", []byte("v1"), nil)
	s.Close()
	// Replace the heads log with one pointing at a commit that does not
	// exist (simulating a crash that lost chunk writes).
	bogus := strings.Repeat("ab", 32)
	if err := os.WriteFile(filepath.Join(dir, headsName),
		[]byte(fmt.Sprintf("{\"key\":\"k\",\"head\":%q}\n", bogus)), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir)
	if _, ok := s2.Head("k"); ok {
		t.Fatal("dangling head survived open")
	}
	// The key is usable again.
	if _, err := s2.Commit("k", []byte("v2"), nil); err != nil {
		t.Fatal(err)
	}
}

func TestFsckDetectsValueCorruption(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	s.Commit("k", []byte(strings.Repeat("payload", 100)), nil)
	rep, err := s.Fsck()
	if err != nil || !rep.OK() {
		t.Fatalf("clean store: %+v, %v", rep, err)
	}
	// Flip a byte in some chunk file.
	var victim string
	filepath.WalkDir(filepath.Join(dir, "chunks"), func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && victim == "" {
			victim = path
		}
		return nil
	})
	b, _ := os.ReadFile(victim)
	b[len(b)/2] ^= 0x40
	os.WriteFile(victim, b, 0o644)

	rep, err = s.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("bit flip undetected")
	}
}

func TestCampaignDiff(t *testing.T) {
	a := CampaignRecord{
		ID: "c1", Resolution: "1deg", Layout: 1, TotalNodes: 128, Objective: "min-max",
		ObjectiveSeconds: 400,
		Nodes:            map[string]int{"atm": 100, "ocn": 28, "ice": 75, "lnd": 25},
		Threads:          map[string]int{"atm": 400, "ocn": 112, "ice": 300, "lnd": 100},
		PredictedComp:    map[string]float64{"atm": 300, "ocn": 390},
		Fits: map[string]FitParams{
			"atm": {A: 27180, B: 2e-4, C: 1.05, D: 44.9, R2: 0.999},
			"ocn": {A: 7697, B: 1e-4, C: 1.05, D: 41.5, R2: 0.998},
		},
		ModelDigest: "aaaa",
	}
	b := a
	b.ID = "c2"
	b.ObjectiveSeconds = 430
	b.Nodes = map[string]int{"atm": 96, "ocn": 32, "ice": 75, "lnd": 21}
	b.Threads = map[string]int{"atm": 384, "ocn": 128, "ice": 300, "lnd": 84}
	b.Fits = map[string]FitParams{
		"atm": {A: 29000, B: 2e-4, C: 1.05, D: 44.9, R2: 0.997},
		"ocn": a.Fits["ocn"],
	}
	b.ModelDigest = "bbbb"
	b.TruthScale = map[string]float64{"atm": 1.2}

	d := DiffCampaigns(a, b)
	if d.ObjectiveDelta != 30 {
		t.Fatalf("objective delta = %v", d.ObjectiveDelta)
	}
	if len(d.Alloc) != 3 { // atm, lnd, ocn changed; ice did not
		t.Fatalf("alloc deltas = %+v", d.Alloc)
	}
	if d.Alloc[0].Component != "atm" || d.Alloc[1].Component != "lnd" || d.Alloc[2].Component != "ocn" {
		t.Fatalf("alloc delta order = %+v", d.Alloc)
	}
	if len(d.Fits) != 1 || d.Fits[0].Component != "atm" {
		t.Fatalf("fit deltas = %+v", d.Fits)
	}
	if !d.ModelChanged {
		t.Fatal("model change missed")
	}
	found := false
	for _, n := range d.Notes {
		if strings.Contains(n, "truth functions perturbed") {
			found = true
		}
	}
	if !found {
		t.Fatalf("truth perturbation note missing: %v", d.Notes)
	}

	// Deterministic rendering: same input, same bytes.
	var w1, w2 bytes.Buffer
	d.Format(&w1)
	DiffCampaigns(a, b).Format(&w2)
	if w1.String() != w2.String() {
		t.Fatal("diff rendering is not deterministic")
	}
	for _, want := range []string{"objective: 400.0000 s -> 430.0000 s (+30.0000 s", "atm", "model digest"} {
		if !strings.Contains(w1.String(), want) {
			t.Fatalf("diff output missing %q:\n%s", want, w1.String())
		}
	}
}

func TestCampaignRecordRoundtrip(t *testing.T) {
	r := CampaignRecord{ID: "x", Nodes: map[string]int{"atm": 1}, Fits: map[string]FitParams{"atm": {A: 1}}}
	b, err := EncodeCampaign(r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCampaign(b)
	if err != nil || got.ID != "x" || got.Nodes["atm"] != 1 {
		t.Fatalf("roundtrip = %+v, %v", got, err)
	}
}

func TestHeadsLogCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	for i := 0; i < 100; i++ {
		if _, err := s.Commit("k", []byte(fmt.Sprintf("v%d", i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	b, err := os.ReadFile(filepath.Join(dir, headsName))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(string(b), "\n")
	if lines > 20 {
		t.Fatalf("heads log not compacted: %d lines for 1 key", lines)
	}
}

// TestSyncStoreReopensHeads: a store opened with Sync (fsynced chunks, the
// directories it creates, the heads log and its compaction) commits,
// compacts, reopens and serves its heads like an unsynced one.
func TestSyncStoreReopensHeads(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store", "results")
	s, err := Open(dir, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	var c Commit
	for i := 0; i < 20; i++ { // enough records to compact the heads log once
		c, err = s.Commit("solve/x", []byte(fmt.Sprintf("r%d", i)), map[string]string{"status": "optimal"})
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := s.headLog.Records(); n >= 20 {
		t.Fatalf("heads log holds %d records after 20 commits to one key; it was never compacted", n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	head, ok := s2.Head("solve/x")
	if !ok || head.Hash != c.Hash {
		t.Fatalf("head after reopen = %+v, %v; want %s", head, ok, c.Hash)
	}
	if v, _, err := s2.HeadValue("solve/x"); err != nil || string(v) != "r19" {
		t.Fatalf("head value after reopen = %q, %v", v, err)
	}
}

// TestCommitRacesGC: commits from several goroutines race a loop of GC(1),
// as the server's janitor runs it. A sweep that ran between a commit's
// chunk writes and its pins would fail the commit with a missing chunk;
// none may fail, and the store must fsck clean with every head readable.
func TestCommitRacesGC(t *testing.T) {
	const writers, perWriter, keys = 4, 1250, 50
	s := openStore(t, t.TempDir())
	done := make(chan struct{})
	gcDone := make(chan error, 1)
	go func() {
		for {
			select {
			case <-done:
				gcDone <- nil
				return
			default:
			}
			if _, _, err := s.GC(1); err != nil {
				gcDone <- err
				return
			}
		}
	}()
	errs := make(chan error, writers*perWriter)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("solve/%d", (w*perWriter+i)%keys)
				if _, err := s.Commit(key, []byte(fmt.Sprintf("w%d-%d", w, i)), nil); err != nil {
					errs <- err
				}
			}
		}(w)
	}
	wg.Wait()
	close(done)
	if err := <-gcDone; err != nil {
		t.Fatalf("GC: %v", err)
	}
	close(errs)
	failed := 0
	for err := range errs {
		if failed == 0 {
			t.Errorf("commit failed: %v", err)
		}
		failed++
	}
	if failed > 0 {
		t.Fatalf("%d of %d commits failed", failed, writers*perWriter)
	}
	rep, err := s.Fsck()
	if err != nil || !rep.OK() {
		t.Fatalf("fsck after the race: %+v, %v", rep, err)
	}
	if got := len(s.Keys()); got != keys {
		t.Fatalf("%d keys, want %d", got, keys)
	}
	for _, key := range s.Keys() {
		if _, _, err := s.HeadValue(key); err != nil {
			t.Fatalf("head of %s: %v", key, err)
		}
	}
}

// TestLegacyTreeGatherHeadStillReads: a gather document over 64 KiB, which
// earlier versions stored as a chunk tree (64 KiB 'L' leaves under one 'N'
// node), keeps its head across Open: the value reads back whole, GC leaves
// the tree alone while the head holds it, Fsck is clean, and once a newer
// commit pushes it out of a GC(1) history the whole tree is swept.
func TestLegacyTreeGatherHeadStillReads(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	var doc bytes.Buffer
	for i := 0; doc.Len() <= 150<<10; i++ {
		fmt.Fprintf(&doc, `{"component":"ocn","nodes":%d,"seconds":%d.25},`, 32+i%2016, 100+i)
	}
	value := doc.Bytes()
	node := []byte{'N'}
	for off := 0; off < len(value); off += 64 << 10 {
		leaf := append([]byte{'L'}, value[off:min(off+64<<10, len(value))]...)
		node = append(node, writeChunkFile(t, dir, leaf)...)
	}
	root := writeChunkFile(t, dir, node)
	enc, err := json.Marshal(Commit{Key: "gather/big", Value: cas.Hash(root).String(), Seq: 1, Unix: 1700000000})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := s.CAS().Put(enc)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	f, err := os.OpenFile(filepath.Join(dir, headsName), os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(f, "{\"key\":\"gather/big\",\"head\":%q}\n", ch.String())
	f.Close()

	s2 := openStore(t, dir)
	if _, _, err := s2.GC(0); err != nil {
		t.Fatal(err)
	}
	got, c, err := s2.HeadValue("gather/big")
	if err != nil || !bytes.Equal(got, value) {
		t.Fatalf("legacy tree head after open and GC = %d bytes, %v; want the %d-byte document", len(got), err, len(value))
	}
	if c.Hash != ch.String() {
		t.Fatalf("head %s, want %s", c.Hash, ch)
	}
	rep, err := s2.Fsck()
	if err != nil || !rep.OK() {
		t.Fatalf("fsck: %+v, %v", rep, err)
	}
	if _, err := s2.Commit("gather/big", []byte("smaller"), nil); err != nil {
		t.Fatal(err)
	}
	n, _, err := s2.GC(1)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 + len(node)/cas.HashSize; n != want { // old commit, node, leaves
		t.Fatalf("GC(1) past the legacy head reclaimed %d chunks, want %d", n, want)
	}
	if v, _, err := s2.HeadValue("gather/big"); err != nil || string(v) != "smaller" {
		t.Fatalf("head after GC = %q, %v", v, err)
	}
}

// writeChunkFile writes payload as a chunk file of the store at dir and
// returns its address bytes.
func writeChunkFile(t *testing.T, dir string, payload []byte) []byte {
	t.Helper()
	h := sha256.Sum256(payload)
	hx := cas.Hash(h).String()
	if err := os.MkdirAll(filepath.Join(dir, "chunks", hx[:2]), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "chunks", hx[:2], hx[2:]), payload, 0o644); err != nil {
		t.Fatal(err)
	}
	return h[:]
}

// TestHeadSurvivesCompactingCommit: whichever commit's head record makes
// the heads log due for compaction, that commit is still the key's head
// after a reopen — for a key with history and for a key's first commit.
func TestHeadSurvivesCompactingCommit(t *testing.T) {
	for n := 1; n <= 24; n++ {
		dir := t.TempDir()
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= n; i++ {
			if _, err := s.Commit("gather/c", []byte(fmt.Sprintf("runs=%d", i)), nil); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Commit(fmt.Sprintf("campaign/c%d", n), []byte("done"), nil); err != nil {
			t.Fatal(err)
		}
		s.Close()
		s2, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if h, ok := s2.Head("gather/c"); !ok || h.Seq != n {
			t.Fatalf("after %d commits and a reopen: head seq %d (found %v)", n, h.Seq, ok)
		}
		if _, ok := s2.Head(fmt.Sprintf("campaign/c%d", n)); !ok {
			t.Fatalf("after %d commits and a reopen: the last key's first commit is gone", n)
		}
		s2.Close()
	}
}
