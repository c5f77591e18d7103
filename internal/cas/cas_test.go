package cas

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func openTest(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundtrip(t *testing.T) {
	s := openTest(t, Options{})
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 127, 128, 129, 1000, 64 << 10, 200 << 10} {
		data := make([]byte, n)
		rng.Read(data)
		h, err := s.Put(data)
		if err != nil {
			t.Fatalf("Put(%d bytes): %v", n, err)
		}
		got, err := s.Get(h)
		if err != nil {
			t.Fatalf("Get(%d bytes): %v", n, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("roundtrip mismatch at %d bytes", n)
		}
	}
	if st := s.Stats(); st.Chunks != 8 {
		t.Fatalf("8 values stored as %d chunks, want one each", st.Chunks)
	}
}

func TestAddressesAreStable(t *testing.T) {
	a := openTest(t, Options{})
	b := openTest(t, Options{})
	data := bytes.Repeat([]byte("hslb"), 200)
	ha, _ := a.Put(data)
	hb, _ := b.Put(data)
	if ha != hb {
		t.Fatalf("same value, different addresses: %s vs %s", ha, hb)
	}
}

// TestAddressIsTaggedSHA256 pins a value's address to SHA-256('L' ‖ value)
// at the size of the largest value the repo writes (a 1° constrained solve
// response, about 29 KB) and far past the 64 KiB at which earlier versions
// split a value into a chunk tree. The 29 KB address is also pinned as
// the literal those versions wrote for it.
func TestAddressIsTaggedSHA256(t *testing.T) {
	s := openTest(t, Options{})
	for _, n := range []int{29 << 10, 200 << 10} {
		data := bytes.Repeat([]byte("hslb"), n/4)
		h, err := s.Put(data)
		if err != nil {
			t.Fatal(err)
		}
		if want := Hash(sha256.Sum256(append([]byte{'L'}, data...))); h != want {
			t.Fatalf("Put(%d bytes) = %s, want SHA-256('L' ‖ value) %s", n, h, want)
		}
		const was29K = "77307225dd02db4fdcccf01eca58f474768bb824ad5aa7c4630743ddbc6b7963"
		if n == 29<<10 && h.String() != was29K {
			t.Fatalf("29 KB value address %s, want %s", h, was29K)
		}
	}
}

func TestDedup(t *testing.T) {
	s := openTest(t, Options{})
	data := bytes.Repeat([]byte("x"), 1000)
	h1, _ := s.Put(data)
	st1 := s.Stats()
	h2, _ := s.Put(data)
	st2 := s.Stats()
	if h1 != h2 {
		t.Fatal("identical values got different addresses")
	}
	if st2.Chunks != st1.Chunks || st2.NewBytes != st1.NewBytes {
		t.Fatalf("second Put grew the store: %+v -> %+v", st1, st2)
	}
	if st2.DedupHits <= st1.DedupHits {
		t.Fatal("dedup hits did not increase")
	}
	if st2.DedupRatio() < 1.9 {
		t.Fatalf("dedup ratio %.2f, want ~2", st2.DedupRatio())
	}
}

// TestDedupRatioWithNothingNew: a store that wrote no new chunk reports a
// ratio of 0, whether it is idle or only re-stored values it already held;
// LogicalBytes tells the two apart.
func TestDedupRatioWithNothingNew(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r := s.Stats().DedupRatio(); r != 0 {
		t.Fatalf("idle store: dedup ratio %v, want 0", r)
	}
	values := [][]byte{bytes.Repeat([]byte("a"), 1000), bytes.Repeat([]byte("b"), 1928)}
	for _, v := range values {
		if _, err := s.Put(v); err != nil {
			t.Fatal(err)
		}
	}

	reopened, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range values {
		if _, err := reopened.Put(v); err != nil {
			t.Fatal(err)
		}
	}
	st := reopened.Stats()
	if st.NewBytes != 0 || st.LogicalBytes != 2928 || st.DedupHits != 2 {
		t.Fatalf("re-stored values: %+v, want 0 new bytes of 2928 logical, 2 dedup hits", st)
	}
	if r := st.DedupRatio(); r != 0 {
		t.Fatalf("store that only re-stored held values: dedup ratio %v, want 0", r)
	}
}

func TestReopenFindsChunks(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("persist"), 100)
	h, _ := s.Put(data)

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Get(h)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("reopened Get = %v, %d bytes", err, len(got))
	}
}

func TestPinUnpinGC(t *testing.T) {
	s := openTest(t, Options{})
	keep, _ := s.Put(bytes.Repeat([]byte("keep"), 200))
	drop, _ := s.Put(bytes.Repeat([]byte("drop"), 200))
	if err := s.Pin(keep); err != nil {
		t.Fatal(err)
	}
	n, freed, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || freed == 0 {
		t.Fatal("GC reclaimed nothing")
	}
	if _, err := s.Get(keep); err != nil {
		t.Fatalf("pinned value lost: %v", err)
	}
	if _, err := s.Get(drop); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unpinned value survived GC: %v", err)
	}
	if err := s.Unpin(keep); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.GC(); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Chunks != 0 {
		t.Fatalf("store not empty after unpin+GC: %+v", s.Stats())
	}
}

// TestGCKeepsSharedChunks: a value two owners stored and pinned is one
// chunk, and it survives GC until both have unpinned it.
func TestGCKeepsSharedChunks(t *testing.T) {
	s := openTest(t, Options{})
	shared := bytes.Repeat([]byte("s"), 64)
	a, _ := s.Put(shared)
	b, _ := s.Put(shared)
	if a != b || s.Stats().Chunks != 1 {
		t.Fatalf("one value stored twice: addresses %s, %s; %d chunks", a, b, s.Stats().Chunks)
	}
	if err := s.Pin(a); err != nil {
		t.Fatal(err)
	}
	if err := s.Pin(b); err != nil {
		t.Fatal(err)
	}
	if err := s.Unpin(a); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.GC(); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get(b); err != nil || !bytes.Equal(got, shared) {
		t.Fatalf("shared chunk collected while still referenced: %v", err)
	}
	if err := s.Unpin(b); err != nil {
		t.Fatal(err)
	}
	if n, _, err := s.GC(); err != nil || n != 1 {
		t.Fatalf("GC after the last Unpin reclaimed %d chunks, %v; want 1", n, err)
	}
	if err := s.Pin(a); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Pin of a collected chunk = %v, want ErrNotFound", err)
	}
}

func TestFsckCleanStore(t *testing.T) {
	s := openTest(t, Options{})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5; i++ {
		data := make([]byte, 100+rng.Intn(2000))
		rng.Read(data)
		if _, err := s.Put(data); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := s.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("clean store reported corruption: %+v", rep.Corruption)
	}
	if rep.Chunks != s.Stats().Chunks {
		t.Fatalf("fsck saw %d chunks, index has %d", rep.Chunks, s.Stats().Chunks)
	}
}

// chunkFiles lists every chunk file under the store.
func chunkFiles(t *testing.T, s *Store) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(s.Dir(), func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestCorruptionFuzz is the crash-consistency suite for the chunk store:
// for a spread of deterministic corruptions (single bit flips at seeded
// offsets, truncations, and whole-file zeroing) applied to every chunk
// file in turn, Fsck must flag the store and Get must either return the
// original value (the corrupted chunk is another value's) or fail with
// ErrCorrupt/ErrNotFound — never panic, never serve altered bytes.
func TestCorruptionFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	// makeStore builds byte-identical stores every call (its own fixed-seed
	// rng), so chunk paths recorded from one build name the same chunks in a
	// rebuilt store.
	makeStore := func(t *testing.T) (*Store, []Hash, [][]byte) {
		s, err := Open(t.TempDir(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		storeRNG := rand.New(rand.NewSource(7))
		var roots []Hash
		var values [][]byte
		for i := 0; i < 3; i++ {
			data := make([]byte, 50+i*500)
			storeRNG.Read(data)
			h, err := s.Put(data)
			if err != nil {
				t.Fatal(err)
			}
			roots = append(roots, h)
			values = append(values, data)
		}
		return s, roots, values
	}

	corruptions := []struct {
		name  string
		apply func(t *testing.T, path string, r *rand.Rand) bool
	}{
		{"bitflip", func(t *testing.T, path string, r *rand.Rand) bool {
			b, err := os.ReadFile(path)
			if err != nil || len(b) == 0 {
				t.Fatalf("read %s: %v", path, err)
			}
			b[r.Intn(len(b))] ^= 1 << uint(r.Intn(8))
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			return true
		}},
		{"truncate", func(t *testing.T, path string, r *rand.Rand) bool {
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if info.Size() < 2 {
				return false // truncating to 0 or below is the zero case
			}
			if err := os.Truncate(path, info.Size()/2); err != nil {
				t.Fatal(err)
			}
			return true
		}},
		{"zero", func(t *testing.T, path string, r *rand.Rand) bool {
			if err := os.Truncate(path, 0); err != nil {
				t.Fatal(err)
			}
			return true
		}},
	}

	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			s, roots, values := makeStore(t)
			files := chunkFiles(t, s)
			if len(files) != len(roots) {
				t.Fatalf("%d values stored as %d chunk files, want one each", len(roots), len(files))
			}
			for _, victim := range files {
				// Fresh store per victim so corruptions don't compound.
				s, roots, values = makeStore(t)
				files := chunkFiles(t, s)
				var path string
				for _, f := range files {
					if filepath.Base(f) == filepath.Base(victim) {
						path = f
						break
					}
				}
				if path == "" {
					t.Fatalf("rebuilt store is missing chunk %s", victim)
				}
				if !c.apply(t, path, rng) {
					continue
				}
				rep, err := s.Fsck()
				if err != nil {
					t.Fatalf("fsck errored (should report, not fail): %v", err)
				}
				if rep.OK() {
					t.Fatalf("%s of %s undetected by fsck", c.name, path)
				}
				for i, root := range roots {
					got, err := s.Get(root)
					if err == nil {
						if !bytes.Equal(got, values[i]) {
							t.Fatalf("Get(%s) silently served altered bytes after %s", root, c.name)
						}
						continue
					}
					if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrNotFound) {
						t.Fatalf("Get(%s) = %v, want ErrCorrupt or ErrNotFound", root, err)
					}
				}
			}
		})
	}
}

func TestFsckReportsForeignFiles(t *testing.T) {
	s := openTest(t, Options{})
	if _, err := s.Put([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(s.Dir(), "stray.txt"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("stray file not reported")
	}
}

func TestParseHash(t *testing.T) {
	h, err := s256("abc")
	if err != nil {
		t.Fatal(err)
	}
	rt, err := ParseHash(h.String())
	if err != nil || rt != h {
		t.Fatalf("ParseHash roundtrip: %v", err)
	}
	for _, bad := range []string{"", "zz", h.String()[:10], h.String() + "00"} {
		if _, err := ParseHash(bad); err == nil {
			t.Errorf("ParseHash(%q) accepted", bad)
		}
	}
}

func s256(s string) (Hash, error) {
	store, err := Open(os.TempDir()+"/cas-parse-test", Options{})
	if err != nil {
		return Hash{}, err
	}
	defer os.RemoveAll(store.Dir())
	return store.Put([]byte(s))
}

// FuzzChunkFile writes arbitrary bytes as a chunk file — under their own
// hash, so that only the framing is under test, or under another address —
// and opens the store over it. Get must return exactly the value of a
// well-formed leaf and fail with ErrCorrupt or ErrNotFound on anything
// else (a well-formed legacy node's children are not in the store); Fsck
// must flag everything but a well-formed leaf and never panic.
// The seeds run with every go test.
func FuzzChunkFile(f *testing.F) {
	f.Add([]byte("Lvalue"), true)                                    // a valid leaf
	f.Add(append([]byte{'N'}, bytes.Repeat([]byte{7}, 64)...), true) // a legacy node
	f.Add([]byte{}, true)                                            // an empty file
	f.Add([]byte("Lvalue"), false)                                   // a wrong hash
	f.Add([]byte("Xvalue"), true)                                    // an unknown tag
	f.Fuzz(func(t *testing.T, payload []byte, selfNamed bool) {
		h := Hash(sha256.Sum256([]byte("some other chunk")))
		if selfNamed {
			h = sha256.Sum256(payload)
		}
		dir := t.TempDir()
		hx := h.String()
		if err := os.MkdirAll(filepath.Join(dir, hx[:2]), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, hx[:2], hx[2:]), payload, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		valid := h == sha256.Sum256(payload) && len(payload) > 0 && payload[0] == 'L'

		got, err := s.Get(h)
		switch {
		case valid && (err != nil || !bytes.Equal(got, payload[1:])):
			t.Fatalf("well-formed leaf: Get = %q, %v; want %q", got, err, payload[1:])
		case !valid && err == nil:
			t.Fatalf("damaged chunk %q served as %q", payload, got)
		case !valid && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrNotFound):
			t.Fatalf("damaged chunk: Get = %v, want ErrCorrupt or ErrNotFound", err)
		}

		rep, err := s.Fsck()
		if err != nil {
			t.Fatalf("fsck errored (should report, not fail): %v", err)
		}
		if rep.OK() != valid {
			t.Fatalf("chunk %q (well-formed %v): fsck report %+v", payload, valid, rep.Corruption)
		}
		if valid {
			if again, err := s.Put(payload[1:]); err != nil || again != h {
				t.Fatalf("re-Put of a stored value = %s, %v; want %s", again, err, h)
			}
		}
	})
}

// writeLegacyTree writes data straight to chunk files under dir as the
// chunk tree earlier versions of Put built — chunkSize-byte 'L' leaves
// under 'N' nodes of chunkSize/32 children, level by level up to one
// root — and returns the root's address.
func writeLegacyTree(t *testing.T, dir string, data []byte, chunkSize int) Hash {
	t.Helper()
	write := func(payload []byte) Hash {
		h := Hash(sha256.Sum256(payload))
		hx := h.String()
		if err := os.MkdirAll(filepath.Join(dir, hx[:2]), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, hx[:2], hx[2:]), payload, 0o644); err != nil {
			t.Fatal(err)
		}
		return h
	}
	var level []Hash
	for off := 0; off == 0 || off < len(data); off += chunkSize {
		level = append(level, write(append([]byte{'L'}, data[off:min(off+chunkSize, len(data))]...)))
	}
	for fanout := max(chunkSize/HashSize, 2); len(level) > 1; {
		var next []Hash
		for i := 0; i < len(level); i += fanout {
			payload := []byte{'N'}
			for _, ch := range level[i:min(i+fanout, len(level))] {
				payload = append(payload, ch[:]...)
			}
			next = append(next, write(payload))
		}
		level = next
	}
	return level[0]
}

// TestLegacyTreeReads: a chunk tree that earlier versions wrote for a
// value over their chunk size is still served at the root's address, is
// fsck-clean, and a pin on the root keeps every chunk under it through GC
// until the root is unpinned. The roots are pinned as the literals those
// versions returned (the 200 KB one with their default 64 KiB chunks; the
// deep one, five levels of two-way nodes over repeated leaves, with 64).
func TestLegacyTreeReads(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	random := make([]byte, 300<<10)
	rng.Read(random)
	for _, tc := range []struct {
		name      string
		data      []byte
		chunkSize int
		root      string
	}{
		{"200KB", bytes.Repeat([]byte("hslb"), (200<<10)/4), 64 << 10, "fd37c530d93932b47e334568fd2ce783f686f02de28bec8900df5facb4f173f6"},
		{"deep", bytes.Repeat([]byte("hslb"), 250), 64, "d8670ffb003a63f4af85555d33c527476447023b637c8243ce338c4d595d249f"},
		{"random", random, 64 << 10, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			root := writeLegacyTree(t, dir, tc.data, tc.chunkSize)
			if tc.root != "" && root.String() != tc.root {
				t.Fatalf("test tree root %s, want the earlier Put's %s", root, tc.root)
			}
			s, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got, err := s.Get(root); err != nil || !bytes.Equal(got, tc.data) {
				t.Fatalf("Get(tree root) = %d bytes, %v; want the %d-byte value", len(got), err, len(tc.data))
			}
			if rep, err := s.Fsck(); err != nil || !rep.OK() {
				t.Fatalf("fsck of a legacy tree: %+v, %v", rep, err)
			}
			chunks := s.Stats().Chunks
			if err := s.Pin(root); err != nil {
				t.Fatal(err)
			}
			if n, _, err := s.GC(); err != nil || n != 0 {
				t.Fatalf("GC under a pinned tree root reclaimed %d chunks, %v", n, err)
			}
			if got, err := s.Get(root); err != nil || !bytes.Equal(got, tc.data) {
				t.Fatalf("Get after GC: %v", err)
			}
			if err := s.Unpin(root); err != nil {
				t.Fatal(err)
			}
			if n, _, err := s.GC(); err != nil || n != chunks || s.Stats().Chunks != 0 {
				t.Fatalf("GC after unpin reclaimed %d of %d chunks, %v", n, chunks, err)
			}
		})
	}
}

// TestLegacyTreeMissingLeaf: a legacy tree with a leaf gone reads as
// ErrNotFound, never as a short value, and Fsck names the node.
func TestLegacyTreeMissingLeaf(t *testing.T) {
	dir := t.TempDir()
	data := bytes.Repeat([]byte("0123456789abcdef"), 10<<10)
	root := writeLegacyTree(t, dir, data, 64<<10)
	leaf := Hash(sha256.Sum256(append([]byte{'L'}, data[64<<10:128<<10]...))).String()
	if err := os.Remove(filepath.Join(dir, leaf[:2], leaf[2:])); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get(root); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get over a missing leaf = %d bytes, %v; want ErrNotFound", len(got), err)
	}
	rep, err := s.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Corruption) != 1 || rep.Corruption[0].Hash != root.String() {
		t.Fatalf("fsck report %+v, want the node %s alone", rep.Corruption, root)
	}
}
