package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// rumord is one launched daemon. It is always a child process of the
// benchmark, on loopback, and stop waits for it to exit.
type rumord struct {
	cmd     *exec.Cmd
	base    string
	dataDir string
	exited  chan struct{}
}

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it
// is 100 on every Linux architecture Go supports.
const clockTicks = 100

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// readyPoll is the pause between two /readyz attempts while rumord starts.
const readyPoll = 100 * time.Microsecond

// launch starts bin with args plus a fresh loopback -addr and waits until
// /readyz answers 200. Callers pin the goroutine with preciseWakeups so
// the pauses between attempts are as short as asked.
func launch(ctx context.Context, cl *http.Client, bin string, procs int, dataDir string, args ...string) (*rumord, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, fmt.Errorf("pick port: %w", err)
	}
	all := append([]string{"-addr", addr}, args...)
	if dataDir != "" {
		all = append(all, "-data-dir", dataDir)
	}
	cmd := exec.Command(bin, all...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	// The daemon's log stream is discarded: it costs rumord the same
	// either way, and the benchmark checks answers, not log lines.
	cmd.Stdout, cmd.Stderr = nil, nil
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start rumord: %w", err)
	}
	r := &rumord{cmd: cmd, base: "http://" + addr, dataDir: dataDir, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(r.exited)
	}()
	deadline := time.Now().Add(60 * time.Second)
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, r.base+"/readyz", nil)
		if resp, err := cl.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return r, nil
			}
		}
		select {
		case <-r.exited:
			return nil, errors.New("rumord exited before it was ready")
		case <-ctx.Done():
			r.stop()
			return nil, ctx.Err()
		default:
		}
		// A runtime timer would wake about a millisecond late, a large
		// share of a launch that takes tens of milliseconds.
		sleepUntil(time.Now().Add(readyPoll))
		if time.Now().After(deadline) {
			r.stop()
			return nil, errors.New("rumord not ready within 60s")
		}
	}
}

// stop asks rumord to drain (SIGTERM), kills it if it has not exited
// within 30 seconds, and waits for the process in either case.
func (r *rumord) stop() {
	r.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-r.exited:
	case <-time.After(30 * time.Second):
		r.cmd.Process.Kill()
		<-r.exited
	}
}

func (r *rumord) pid() int { return r.cmd.Process.Pid }

// cpu returns rumord's user+system CPU time so far.
func (r *rumord) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", r.pid()))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("unparsable /proc stat times")
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// hwmMB is rumord's peak resident set (VmHWM) in MiB.
func (r *rumord) hwmMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", r.pid()))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// scrape reads the named unlabelled gauges from /metrics.
func scrape(ctx context.Context, cl *http.Client, base string, names ...string) (map[string]float64, time.Duration, error) {
	start := time.Now()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	resp, err := cl.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	took := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	out := make(map[string]float64, len(names))
	for _, line := range strings.Split(string(body), "\n") {
		for _, n := range names {
			if v, ok := strings.CutPrefix(line, n+" "); ok {
				if f, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err == nil {
					out[n] = f
				}
			}
		}
	}
	for _, n := range names {
		if _, ok := out[n]; !ok {
			return nil, 0, fmt.Errorf("/metrics has no %s", n)
		}
	}
	return out, took, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n
}
