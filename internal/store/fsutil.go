package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// writeFileAtomic writes data to path via a temp file in the same
// directory followed by a rename, so readers never observe a partial file
// and a crash leaves either the old content or the new, never a mix. With
// durable set, the temp file is fsynced before the rename and the
// directory after, making the rename itself durable; durable=false keeps
// the atomicity but skips both fsyncs, leaving persistence to the page
// cache. The blob store uses the latter under the batched and none sync
// policies, where the matching WAL record is only as durable as the next
// flush anyway.
func writeFileAtomic(path string, data []byte, perm os.FileMode, durable bool) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("store: create temp for %s: %w", path, err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename

	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("store: write %s: %w", tmpName, err)
	}
	if durable {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			return fmt.Errorf("store: sync %s: %w", tmpName, err)
		}
	}
	if err := tmp.Chmod(perm); err != nil {
		tmp.Close()
		return fmt.Errorf("store: chmod %s: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: close %s: %w", tmpName, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("store: rename %s -> %s: %w", tmpName, path, err)
	}
	if !durable {
		return nil
	}
	return syncDir(dir)
}

// ReplaceFile atomically renames src over dst (POSIX rename semantics) and
// fsyncs the directory so the swap survives a crash.
func ReplaceFile(src, dst string) error {
	if err := os.Rename(src, dst); err != nil {
		return fmt.Errorf("store: rename %s -> %s: %w", src, dst, err)
	}
	return syncDir(filepath.Dir(dst))
}

// syncDir fsyncs a directory so renames and unlinks inside it are durable.
// Filesystems that refuse to sync directories (some network mounts) are
// tolerated: the rename already happened, only its durability is weaker.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: open dir %s: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !os.IsPermission(err) {
		// EINVAL from exotic filesystems is non-fatal by the same logic.
		return nil
	}
	return nil
}

// RotatingWriter is an append-only file writer with size-capped rotation:
// once the current file would exceed MaxBytes, it is atomically renamed to
// path+".1" (replacing the previous backup) and a fresh file opened. One
// backup generation bounds total disk use at ~2×MaxBytes while keeping the
// most recent history across the rotation point. rumord uses it for the
// -journal-file JSONL sink, which previously grew without bound.
//
// Writes are serialized internally, so it is safe behind any io.Writer
// consumer. A Write is never split across the rotation boundary: callers
// that emit one line per Write keep whole lines in each generation.
type RotatingWriter struct {
	mu       sync.Mutex
	path     string
	maxBytes int64
	f        *os.File
	size     int64
}

// NewRotatingWriter opens (creating or appending to) path with rotation at
// maxBytes. maxBytes <= 0 disables rotation, leaving plain append-only
// behavior.
func NewRotatingWriter(path string, maxBytes int64) (*RotatingWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: stat %s: %w", path, err)
	}
	return &RotatingWriter{path: path, maxBytes: maxBytes, f: f, size: st.Size()}, nil
}

// Write appends p, rotating first when the append would cross the cap.
func (w *RotatingWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.maxBytes > 0 && w.size > 0 && w.size+int64(len(p)) > w.maxBytes {
		if err := w.rotateLocked(); err != nil {
			return 0, err
		}
	}
	n, err := w.f.Write(p)
	w.size += int64(n)
	return n, err
}

// rotateLocked swaps the live file to the ".1" backup and reopens fresh.
func (w *RotatingWriter) rotateLocked() error {
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("store: rotate close %s: %w", w.path, err)
	}
	if err := ReplaceFile(w.path, w.path+".1"); err != nil {
		return err
	}
	f, err := os.OpenFile(w.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: rotate reopen %s: %w", w.path, err)
	}
	w.f = f
	w.size = 0
	return nil
}

// Close flushes nothing (writes are unbuffered) and closes the live file.
func (w *RotatingWriter) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}
