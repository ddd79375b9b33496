package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// host is the record a result carries so that two results are compared
// only when they were measured under the same conditions. Commit names
// the code under test and is the one field allowed to differ.
type host struct {
	NProc            int    `json:"nproc"`
	GenGOMAXPROCS    int    `json:"generator_gomaxprocs"`
	RumordGOMAXPROCS int    `json:"rumord_gomaxprocs"`
	CPUModel         string `json:"cpu_model"`
	Kernel           string `json:"kernel"`
	GoVersion        string `json:"go_version"`
	Commit           string `json:"commit"`
}

// fingerprint is everything but the commit.
func (h host) fingerprint() string {
	return fmt.Sprintf("nproc=%d generator_gomaxprocs=%d rumord_gomaxprocs=%d cpu=%q kernel=%q go=%q",
		h.NProc, h.GenGOMAXPROCS, h.RumordGOMAXPROCS, h.CPUModel, h.Kernel, h.GoVersion)
}

func readHost(root string, rumordProcs int) host {
	return host{
		NProc:            runtime.NumCPU(),
		GenGOMAXPROCS:    runtime.GOMAXPROCS(0),
		RumordGOMAXPROCS: rumordProcs,
		CPUModel:         cpuModel(),
		Kernel:           strings.TrimSpace(readFile("/proc/sys/kernel/osrelease")),
		GoVersion:        runtime.Version(),
		Commit:           commit(root),
	}
}

func readFile(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return string(b)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the tree under test: the git revision when the checkout is
// a repository, else a hash over the Go sources and go.mod files, so a
// checkout without history still gets a stable identity.
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00", rel)
		if f, err := os.Open(p); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// record is one run's result as written under .bench_build/runs.
type record struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Seconds  int               `json:"seconds"`
	Trace    bool              `json:"trace"`
	Host     host              `json:"host"`
	Result   result            `json:"result"`
	Notes    map[string]string `json:"notes,omitempty"`
	Lines    []string          `json:"lines"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func loadRecord(path string) (record, error) {
	var r record
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareRecords prints each shared metric of two runs of one workload
// side by side. It refuses runs whose host fingerprints differ: a number
// measured on another CPU count, CPU, kernel or toolchain says nothing
// about the code.
func compareRecords(w io.Writer, a, b record) error {
	if fa, fb := a.Host.fingerprint(), b.Host.fingerprint(); fa != fb {
		return fmt.Errorf("refusing to compare: host fingerprints differ:\n  %s\n  %s", fa, fb)
	}
	if a.Workload != b.Workload || a.Trace != b.Trace {
		return fmt.Errorf("refusing to compare %s (trace %v) with %s (trace %v)", a.Workload, a.Trace, b.Workload, b.Trace)
	}
	names := make([]string, 0, len(a.Result.Metrics))
	for k := range a.Result.Metrics {
		if _, ok := b.Result.Metrics[k]; ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-36s %14s %14s %9s  (%s vs %s)\n", "metric", "a", "b", "b/a", a.Host.Commit, b.Host.Commit)
	for _, k := range names {
		va, vb := a.Result.Metrics[k], b.Result.Metrics[k]
		ratio := "-"
		if va.Value != 0 {
			ratio = fmt.Sprintf("%.3f", vb.Value/va.Value)
		}
		fmt.Fprintf(w, "%-36s %14.6g %14.6g %9s  %s\n", k, va.Value, vb.Value, ratio, va.Unit)
	}
	return nil
}
