// Command rumorbench is rumornet's benchmark. For one workload it launches
// the rumord binary built from the tree under test as its own process on
// loopback, drives it from this one process over at most two HTTP
// connections, checks every answer against the in-process service, and
// prints the end-to-end metrics. With -trace 1 it instead records spans
// around every call it makes, replays the workload's requests against the
// layers' public functions in-process, and prints the per-layer metrics.
//
// Run it from the repository root through its build script:
//
//	bash rumorbench/run.sh --workload solve --seed 1 --seconds 45 --trace 0
//
// The last line of standard output is the JSON result; the lines before it
// give every number the run measured under a descriptive name with its
// unit, and the run's record (host fingerprint included) is written under
// .bench_build/runs.
// Two records are compared with
//
//	.bench_build/rumorbench -compare a.json b.json
//
// which refuses records whose host fingerprints differ.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:])) }

// runner is the state of one benchmark run.
type runner struct {
	ctx      context.Context
	root     string
	bin      string
	workload string
	seed     int64
	seconds  int
	traced   bool
	procs    int // rumord GOMAXPROCS
	work     string

	m     *metrics
	notes map[string]string
	lines []string
	wrong []string
	tr    *tracer
	// ref answers every request in-process for the answer checks; pools
	// caches the query points and their in-process answers per stream.
	ref   *reference
	pools map[int][]point
}

// say prints a human-readable line before the result and keeps it for
// the run record.
func (r *runner) say(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	r.lines = append(r.lines, line)
	fmt.Println(line)
}

// measured prints one metric under its descriptive name (not part of the
// JSON result) so every number the workload measures is visible.
func (r *runner) measured(name, unit string, v float64, n int) {
	r.say("  %-28s %12.4f %-6s (n=%d)", name, v, unit, n)
}

func run(args []string) int {
	fs := flag.NewFlagSet("rumorbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "solve or churn")
		seed     = fs.Int64("seed", 1, "seed for every generated input")
		seconds  = fs.Int("seconds", 30, "measured seconds per run")
		trace    = fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
		bin      = fs.String("rumord", "", "rumord binary built from the tree under test")
		root     = fs.String("root", ".", "repository root (build outputs go to <root>/.bench_build)")
		compare  = fs.Bool("compare", false, "compare two run records given as arguments")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "rumorbench: -compare takes two record files")
			return 2
		}
		a, err := loadRecord(fs.Arg(0))
		if err == nil {
			var b record
			if b, err = loadRecord(fs.Arg(1)); err == nil {
				err = compareRecords(os.Stdout, a, b)
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "rumorbench:", err)
			return 1
		}
		return 0
	}
	wl, ok := workloads[*workload]
	if !ok || *bin == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "rumorbench: need -workload solve|churn, -rumord, -seconds >= 1, -trace 0|1")
		return 2
	}
	nproc := runtime.NumCPU()
	if runtime.GOMAXPROCS(0) > nproc {
		runtime.GOMAXPROCS(nproc)
	}
	abs, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rumorbench:", err)
		return 2
	}
	r := &runner{
		ctx: context.Background(), root: abs, bin: *bin, workload: *workload,
		seed: *seed, seconds: *seconds, traced: *trace == 1, procs: nproc,
		m: newMetrics(), notes: make(map[string]string),
	}
	r.work = filepath.Join(abs, ".bench_build", "work", fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid()))
	if err := os.MkdirAll(r.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "rumorbench:", err)
		return 1
	}
	defer os.RemoveAll(r.work)
	if r.traced {
		r.tr = &tracer{}
	}
	if r.ref, err = newReference(2); err != nil {
		fmt.Fprintln(os.Stderr, "rumorbench:", err)
		return 1
	}
	defer r.ref.close()
	r.pools = make(map[int][]point)
	h := readHost(abs, r.procs)
	r.say("rumorbench %s seed=%d seconds=%d trace=%d", *workload, *seed, *seconds, *trace)
	r.say("host: %s commit=%s", h.fingerprint(), h.Commit)

	res, err := wl(r)
	if err == nil {
		err = r.m.err
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rumorbench: run failed:", err)
		return 1
	}
	res.Correct = len(r.wrong) == 0
	res.Metrics = r.m.vals
	for _, w := range r.wrong {
		fmt.Fprintln(os.Stderr, "rumorbench: wrong answer:", w)
	}
	if err := r.saveRecord(h, res); err != nil {
		fmt.Fprintln(os.Stderr, "rumorbench: write record:", err)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

func (r *runner) saveRecord(h host, res result) error {
	dir := filepath.Join(r.root, ".bench_build", "runs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d", r.workload, r.seed, map[bool]int{false: 0, true: 1}[r.traced])
	if r.tr != nil {
		if err := r.tr.write(filepath.Join(dir, name+".spans.jsonl")); err != nil {
			return err
		}
	}
	rec := record{Workload: r.workload, Seed: r.seed, Seconds: r.seconds, Trace: r.traced,
		Host: h, Result: res, Notes: r.notes, Lines: r.lines}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".json"), b, 0o644)
}

// rusage is this process's own CPU time so far.
func rusage() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// printLayers prints the per-layer metrics in name order.
func (r *runner) printLayers() {
	names := append([]string(nil), r.m.names...)
	sort.Strings(names)
	r.say("per-layer metrics:")
	for _, n := range names {
		v := r.m.vals[n]
		r.say("  %-36s %14.6g %s", n, v.Value, v.Unit)
	}
}
