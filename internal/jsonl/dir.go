package jsonl

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
)

// The stores on disk (this log, internal/cas, internal/jobstore) share one
// rule for directory durability: a create or rename is durable only once
// the directory holding it is synced, and a new directory only once its
// parent is.

// SyncDir fsyncs a directory, making a create or rename in it durable.
func SyncDir(dir string) error {
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

// MkdirAll is os.MkdirAll that, with sync set, also syncs each directory
// it creates into its parent, so the new entry survives a power loss.
func MkdirAll(dir string, sync bool) error {
	if !sync {
		return os.MkdirAll(dir, 0o755)
	}
	if _, err := os.Stat(dir); !errors.Is(err, fs.ErrNotExist) {
		return os.MkdirAll(dir, 0o755) // it exists, or MkdirAll reports why not
	}
	parent := filepath.Dir(dir)
	if err := MkdirAll(parent, true); err != nil {
		return err
	}
	if err := os.Mkdir(dir, 0o755); err != nil && !errors.Is(err, fs.ErrExist) {
		return err
	}
	return SyncDir(parent)
}
