package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := writeFileAtomic(path, []byte("v1"), 0o644, true); err != nil {
		t.Fatal(err)
	}
	if err := writeFileAtomic(path, []byte("v2"), 0o644, true); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "v2" {
		t.Fatalf("read = (%q, %v), want v2", got, err)
	}
	// No temp litter left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("temp file left behind: %s", e.Name())
		}
	}
}

// TestRotatingWriterRotates writes past the cap and checks the live file
// restarts while the backup holds the earlier lines intact.
func TestRotatingWriterRotates(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	w, err := NewRotatingWriter(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	var want bytes.Buffer
	for i := 0; i < 10; i++ {
		line := fmt.Sprintf("{\"seq\":%d,\"padding\":\"0123456789\"}\n", i)
		want.WriteString(line)
		if _, err := w.Write([]byte(line)); err != nil {
			t.Fatal(err)
		}
	}

	live, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	backup, err := os.ReadFile(path + ".1")
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(live)) > 64 {
		t.Errorf("live file %d bytes exceeds the 64-byte cap", len(live))
	}
	// Live + backup must be a suffix of everything written: rotation drops
	// only whole oldest generations, never splits or reorders lines.
	joined := string(backup) + string(live)
	if !strings.HasSuffix(want.String(), joined) {
		t.Errorf("backup+live is not a clean suffix of the written stream:\n%q", joined)
	}
	for _, chunk := range []string{string(live), string(backup)} {
		for _, line := range strings.Split(strings.TrimRight(chunk, "\n"), "\n") {
			if line != "" && (!strings.HasPrefix(line, "{") || !strings.HasSuffix(line, "}")) {
				t.Errorf("line split across rotation: %q", line)
			}
		}
	}
}

// TestRotatingWriterAppendsAcrossReopen mirrors a daemon restart: the
// writer must append to what a previous run left.
func TestRotatingWriterAppendsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	w1, err := NewRotatingWriter(path, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(w1, "first run")
	w1.Close()

	w2, err := NewRotatingWriter(path, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(w2, "second run")
	w2.Close()

	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "first run\nsecond run\n" {
		t.Errorf("content after reopen: %q", got)
	}
}

// TestRotatingWriterNoCap checks maxBytes <= 0 never rotates.
func TestRotatingWriterNoCap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	w, err := NewRotatingWriter(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 100; i++ {
		fmt.Fprintln(w, strings.Repeat("x", 100))
	}
	if _, err := os.Stat(path + ".1"); !os.IsNotExist(err) {
		t.Error("uncapped writer rotated")
	}
}
