package jsonl

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

type rec struct {
	N int    `json:"n"`
	S string `json:"s"`
}

// open opens path, collecting every replayed record; lines that are not a
// rec are rejected.
func open(t *testing.T, path string) (*Log, []rec) {
	t.Helper()
	var got []rec
	l, err := Open(path, false, func(line []byte) bool {
		var r rec
		if json.Unmarshal(line, &r) != nil {
			return false
		}
		got = append(got, r)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return l, got
}

// threeRecords writes a fresh three-record log and returns its bytes.
func threeRecords(t *testing.T) ([]rec, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "log")
	l, _ := open(t, path)
	recs := []rec{{1, "one"}, {22, "twenty-two"}, {333, "three hundred"}}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return recs, b
}

// TestTornAtEveryOffset cuts a three-record log at every byte: Open must
// replay exactly the complete records, cut the file to them, and an
// Append after the cut must replay right behind them.
func TestTornAtEveryOffset(t *testing.T) {
	recs, full := threeRecords(t)
	extra := rec{4444, "appended"}
	for cut := 0; cut <= len(full); cut++ {
		path := filepath.Join(t.TempDir(), "log")
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		complete, prefix := 0, 0
		for i, c := range full[:cut] {
			if c == '\n' {
				complete, prefix = complete+1, i+1
			}
		}

		l, got := open(t, path)
		if !reflect.DeepEqual(append([]rec{}, got...), recs[:complete]) {
			t.Fatalf("cut %d: replayed %v, want %v", cut, got, recs[:complete])
		}
		if l.Size() != int64(prefix) || l.Records() != complete {
			t.Fatalf("cut %d: Size %d Records %d, want %d %d", cut, l.Size(), l.Records(), prefix, complete)
		}
		if err := l.Append(extra); err != nil {
			t.Fatal(err)
		}
		l.Close()

		l, got = open(t, path)
		l.Close()
		want := append(append([]rec(nil), recs[:complete]...), extra)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cut %d: after append, replayed %v, want %v", cut, got, want)
		}
	}
}

// TestCorruptMiddleLineDropsTail: replay stops at the first rejected line
// and everything from it on is cut, so the next append follows the last
// good record.
func TestCorruptMiddleLineDropsTail(t *testing.T) {
	recs, full := threeRecords(t)
	first := len(mustMarshal(t, recs[0])) + 1
	b := append([]byte(nil), full...)
	b[first] = '#' // the second line no longer parses
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	l, got := open(t, path)
	if !reflect.DeepEqual(got, recs[:1]) || l.Size() != int64(first) {
		t.Fatalf("replayed %v (size %d), want %v (size %d)", got, l.Size(), recs[:1], first)
	}
	if err := l.Append(recs[2]); err != nil {
		t.Fatal(err)
	}
	l.Close()
	_, got = open(t, path)
	if want := []rec{recs[0], recs[2]}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after append, replayed %v, want %v", got, want)
	}
}

// TestStaleTmpNeverReplacesLog: a Rewrite that crashed before its rename
// leaves a tmp file; Open replays the live log, not the tmp, and the next
// Rewrite still lands.
func TestStaleTmpNeverReplacesLog(t *testing.T) {
	recs, full := threeRecords(t)
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".tmp", append(mustMarshal(t, rec{9, "stale"}), '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	l, got := open(t, path)
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("replayed %v, want the live log %v", got, recs)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("stale tmp survived Open: %v", err)
	}

	err := l.Rewrite(func(enc *json.Encoder) error { return enc.Encode(recs[2]) })
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(recs[0]); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if l.Records() != 2 || l.Size() != fi.Size() {
		t.Fatalf("after rewrite: Records %d Size %d, want 2 and file size %d", l.Records(), l.Size(), fi.Size())
	}
	l.Close()
	_, got = open(t, path)
	if want := []rec{recs[2], recs[0]}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after rewrite, replayed %v, want %v", got, want)
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
