// Package jsonl is the append-only JSON-lines log under the job WAL and
// the result store's heads log. Open replays the complete lines and cuts
// the file back to the last one the caller accepted, so a torn tail left
// by a crash mid-append never sits in front of the next record. Append
// writes one record per write call; Rewrite compacts by writing a tmp
// file and renaming it over the log, so a crash mid-compaction leaves the
// old log intact.
package jsonl

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// Log is one open JSONL file. It is not safe for concurrent use; the
// stores that own a Log serialize access under their own lock.
type Log struct {
	path    string
	sync    bool
	f       *os.File
	size    int64
	records int
}

// Open opens (or creates) the log at path and replays it. replay is called
// with each complete non-blank line, newline stripped, in file order;
// replay stops at the first line it rejects or at a final line with no
// newline, and the file is truncated to the end of the last accepted line.
// With sync set, every Append is fsynced, and so is the directory when
// Open creates the file or Rewrite renames over it.
func Open(path string, sync bool, replay func(line []byte) bool) (*Log, error) {
	// A tmp file is only ever a Rewrite that crashed before its rename;
	// the log it was meant to replace is still the live one.
	_ = os.Remove(path + ".tmp")
	var created bool
	if sync {
		_, err := os.Stat(path)
		created = errors.Is(err, fs.ErrNotExist)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jsonl: %w", err)
	}
	if created {
		if err := SyncDir(filepath.Dir(path)); err != nil {
			f.Close()
			return nil, fmt.Errorf("jsonl: sync directory of %s: %w", path, err)
		}
	}
	l := &Log{path: path, sync: sync, f: f}
	br := bufio.NewReader(f)
	torn := false
	for {
		line, err := br.ReadBytes('\n')
		if errors.Is(err, io.EOF) {
			torn = len(line) > 0
			break
		}
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("jsonl: replay %s: %w", path, err)
		}
		if body := line[:len(line)-1]; len(body) > 0 {
			if !replay(body) {
				torn = true
				break
			}
			l.records++
		}
		l.size += int64(len(line))
	}
	if torn {
		if err := f.Truncate(l.size); err != nil {
			f.Close()
			return nil, fmt.Errorf("jsonl: cut torn tail of %s: %w", path, err)
		}
	}
	return l, nil
}

// Append writes v as one line. A failed write is cut back off the file so
// the next Append does not land after a partial line.
func (l *Log) Append(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("jsonl: encode: %w", err)
	}
	b = append(b, '\n')
	if _, err := l.f.Write(b); err != nil {
		_ = l.f.Truncate(l.size)
		return fmt.Errorf("jsonl: append %s: %w", l.path, err)
	}
	if l.sync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("jsonl: sync %s: %w", l.path, err)
		}
	}
	l.size += int64(len(b))
	l.records++
	return nil
}

// Rewrite replaces the log with the records write encodes: they go to a
// tmp file, which is fsynced and renamed over the log before the log is
// reopened for appends. With sync set, the rename is fsynced too.
func (l *Log) Rewrite(write func(*json.Encoder) error) error {
	tmp := l.path + ".tmp"
	tf, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("jsonl: rewrite %s: %w", l.path, err)
	}
	cw := &countingWriter{w: bufio.NewWriter(tf)}
	err = write(json.NewEncoder(cw))
	if err == nil {
		err = cw.w.Flush()
	}
	if err == nil {
		err = tf.Sync()
	}
	if cerr := tf.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, l.path)
	}
	if err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("jsonl: rewrite %s: %w", l.path, err)
	}
	l.f.Close()
	f, err := os.OpenFile(l.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("jsonl: reopen %s: %w", l.path, err)
	}
	l.f, l.size, l.records = f, cw.n, cw.lines
	if l.sync {
		if err := SyncDir(filepath.Dir(l.path)); err != nil {
			return fmt.Errorf("jsonl: sync rename of %s: %w", l.path, err)
		}
	}
	return nil
}

// Records is the number of records in the file, live and superseded alike.
func (l *Log) Records() int { return l.records }

// Size is the file's length in bytes.
func (l *Log) Size() int64 { return l.size }

// Close closes the file.
func (l *Log) Close() error { return l.f.Close() }

// countingWriter counts the bytes and lines a Rewrite writes.
type countingWriter struct {
	w     *bufio.Writer
	n     int64
	lines int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.lines += bytes.Count(p[:n], []byte{'\n'})
	return n, err
}
