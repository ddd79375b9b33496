package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"rumornet/internal/loadgen"
	"rumornet/internal/service"
)

var workloads = map[string]func(*runner) (result, error){
	"solve": runSolve,
	"churn": runChurn,
}

const (
	// launches is how many times set-up runs per run; setup_s is their
	// median and the last launch serves the workload.
	launches = 21
	// Poll cadences: solve jobs run for tens to hundreds of milliseconds,
	// churn jobs for well under one.
	solvePoll = 5 * time.Millisecond
	churnPoll = 500 * time.Microsecond
	// churnRate is the open-loop rate, a quarter of the closed-loop
	// capacity measured on a 2-CPU host (about 1300 cold jobs/s over two
	// connections), so a contended host does not tip the open loop into a
	// growing backlog.
	churnRate = 300.0
	// phaseA is the open-loop share of a churn run; the closed loop gets
	// the rest.
	phaseA = 0.6
	// lateBoundMS bounds the generator's own lateness (p99): beyond it the
	// run is invalid, because late sends would be billed to the server.
	lateBoundMS = 10.0
	probes      = 1000
)

// counter gives each cold request a seed no other request of the run has:
// the seed is part of rumord's cache key, so each such job executes.
type counter struct {
	base int64
	n    atomic.Int64
}

func (c *counter) next() int64 { return c.base + c.n.Add(1) }

func (r *runner) seeds() *counter { return &counter{base: r.seed * 10_000_000} }

// mix is splitmix64; unit turns (seed, stream, i) into a uniform [0, 1)
// value, so request i's inputs do not depend on which sender took it.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func unit(seed int64, stream, i int) float64 {
	return float64(mix(mix(uint64(seed))^uint64(stream)<<40^uint64(i))>>11) / (1 << 53)
}

// hullPoint is a query point strictly inside the surface hull, formatted
// the way it is sent.
func hullPoint(seed int64, stream, i int) (string, string) {
	u, v := unit(seed, stream, 2*i), unit(seed, stream, 2*i+1)
	e1 := hullEps1[0] + (0.02+0.96*u)*(hullEps1[1]-hullEps1[0])
	e2 := hullEps2[0] + (0.02+0.96*v)*(hullEps2[1]-hullEps2[0])
	return strconv.FormatFloat(e1, 'f', 6, 64), strconv.FormatFloat(e2, 'f', 6, 64)
}

func jobBody(typ, params string) []byte {
	return []byte(`{"type":"` + typ + `","params":{` + params + `}}`)
}

func thresholdBody(seed int64) []byte {
	return jobBody("threshold", fmt.Sprintf(`"r0":1.6,"seed":%d`, seed))
}

// point is a query point inside the surface hull and the answer the
// in-process service gives for it.
type point struct {
	eps1, eps2 string
	want       service.QueryResult
}

// poolSize is the number of distinct query points per stream; request i
// uses point i mod poolSize, so every answer can be checked inline
// against a table computed before the timed phases.
const poolSize = 2048

// pool returns the query points of one stream with their in-process
// answers, building the reference surface on first use.
func (r *runner) pool(stream int) ([]point, error) {
	if p, ok := r.pools[stream]; ok {
		return p, nil
	}
	if len(r.pools) == 0 {
		if err := waitSurface(r.ctx, r.ref.svc); err != nil {
			return nil, err
		}
	}
	pts := make([]point, poolSize)
	for i := range pts {
		e1, e2 := hullPoint(r.seed, stream, i)
		q, err := queryOf(e1, e2)
		if err != nil {
			return nil, err
		}
		res, err := r.ref.svc.Query(q)
		if err != nil {
			return nil, fmt.Errorf("in-process query: %w", err)
		}
		pts[i] = point{eps1: e1, eps2: e2, want: res}
	}
	r.pools[stream] = pts
	return pts, nil
}

// start launches rumord `launches` times, each on a fresh data directory
// when dataDir is set, and keeps the last one. setup_s is the median time
// from launch until ready.
func (r *runner) start(cl *http.Client, dataDir bool, args ...string) (*rumord, *session, error) {
	var srv *rumord
	var setups []float64
	defer preciseWakeups()()
	for k := 0; k < launches; k++ {
		if srv != nil {
			srv.stop()
			os.RemoveAll(srv.dataDir)
		}
		dir := ""
		if dataDir {
			dir = filepath.Join(r.work, fmt.Sprintf("data-%d", k))
		}
		t0 := time.Now()
		s, err := launch(r.ctx, cl, r.bin, r.procs, dir, args...)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		srv = s
	}
	sort.Float64s(setups)
	r.e2e("setup_s", "s", median(setups))
	r.say("set-up: %d launches, median %.4f s, min %.4f s, max %.4f s", launches, median(setups), setups[0], setups[len(setups)-1])
	return srv, newSession(cl, srv.base), nil
}

// window brackets the timed phases: rumord and generator CPU and rumord GC
// cycles are read at its two ends only, so scraping does not load the
// server while it is measured.
type window struct {
	srvCPU, drvCPU time.Duration
	gc             float64
	attempted      int
}

func (r *runner) open(cl *http.Client, srv *rumord, d *session) (window, error) {
	g, _, err := scrape(r.ctx, cl, srv.base, "rumor_runtime_gc_cycles_total")
	if err != nil {
		return window{}, err
	}
	cpu, err := srv.cpu()
	if err != nil {
		return window{}, err
	}
	return window{srvCPU: cpu, drvCPU: rusage(), gc: g["rumor_runtime_gc_cycles_total"], attempted: d.attempted}, nil
}

// close reports the window's per-request costs and the generator's health.
func (r *runner) close(cl *http.Client, srv *rumord, d *session, w window) error {
	drv := rusage() - w.drvCPU
	cpu, err := srv.cpu()
	if err != nil {
		return err
	}
	g, _, err := scrape(r.ctx, cl, srv.base, "rumor_runtime_gc_cycles_total", "rumor_runtime_goroutines")
	if err != nil {
		return err
	}
	requests := d.attempted - w.attempted
	if requests == 0 {
		return fmt.Errorf("no requests completed")
	}
	n := float64(requests)
	r.layer("rumord.cpu_us_per_req", "us", float64(cpu-w.srvCPU)/1e3/n)
	r.layer("gen.cpu_us_per_req", "us", float64(drv)/1e3/n)
	r.layer("rumord.gc_per_1k_req", "count", (g["rumor_runtime_gc_cycles_total"]-w.gc)*1000/n)
	r.layer("rumord.goroutines_end", "count", g["rumor_runtime_goroutines"])
	late50, _ := percentile(d.lateMS, 0.50)
	late99, err := percentile(d.lateMS, 0.99)
	if err != nil {
		return fmt.Errorf("generator lateness: %w", err)
	}
	r.layer("gen.late_ms.p50", "ms", late50)
	r.layer("gen.late_ms.p99", "ms", late99)
	r.say("generator: %d requests, %d sends, lateness p50 %.4f ms p99 %.4f ms, %.1f us CPU per request",
		requests, len(d.lateMS), late50, late99, float64(drv)/1e3/n)
	if late99 > lateBoundMS {
		return fmt.Errorf("run invalid: generator lateness p99 %.3f ms exceeds %.1f ms, so latencies would bill the generator's delays to rumord", late99, lateBoundMS)
	}
	rss, err := srv.hwmMB()
	if err != nil {
		return err
	}
	r.e2e("rss_peak_mb", "MB", rss)
	r.measured("rumord_vmhwm_mb", "MB", rss, 1)
	return nil
}

// timed runs phase twice in a traced run — first untraced, then traced,
// half the time each — so the traced half yields spans and the pair
// yields the tracing overhead on the primary class. An untraced run runs
// it once for the whole duration.
func (r *runner) timed(d *session, dur time.Duration, primary string, phase func(label string, dur time.Duration)) {
	if !r.traced {
		phase("A", dur)
		return
	}
	phase("A", dur/2)
	d.tr = r.tr
	phase("A-traced", dur/2)
	d.tr = nil
	plain, traced := d.e2e("A", primary), d.e2e("A-traced", primary)
	if len(plain) > 0 && len(traced) > 0 {
		r.layer("trace.overhead_pct", "%", 100*(mean(traced)-mean(plain))/mean(plain))
	}
	l := buildLadder(r.tr.spans)
	r.say("ladder over %d traced requests, mean e2e %.4f ms:", l.Requests, l.MeanE2EMS)
	for _, layer := range []string{"conn", "gen", "http", "poll", "service.queue_wait", "service.execute", "service.serialize"} {
		// A closed loop never waits for a connection, so conn is a
		// per-layer metric only where the open loop can wait.
		if layer != "conn" {
			r.layer("ladder.self_pct."+layer, "%", l.SelfPct[layer])
		}
		r.say("  %-20s self %7.3f%%", layer, l.SelfPct[layer])
	}
	r.layer("ladder.residual_pct", "%", l.ResidualPct)
	r.say("  %-20s      %7.3f%%", "residual", l.ResidualPct)
	if l.ResidualPct > 10 {
		r.say("FINDING: %.1f%% of end-to-end time is covered by no layer span", l.ResidualPct)
	}
}

// samples returns one phase's successful requests of one class ("" for
// every class).
func (d *session) samples(phase, class string) []sample {
	d.mu.Lock()
	defer d.mu.Unlock()
	if class != "" {
		return append([]sample(nil), d.lat[phase+" "+class]...)
	}
	var xs []sample
	for k, v := range d.lat {
		if strings.HasPrefix(k, phase+" ") {
			xs = append(xs, v...)
		}
	}
	return xs
}

// e2e returns the end-to-end latencies (ms) of one phase's successful
// requests of one class ("" for every class).
func (d *session) e2e(phase, class string) []float64 {
	s := d.samples(phase, class)
	xs := make([]float64, len(s))
	for i := range s {
		xs[i] = s[i].ms
	}
	return xs
}

// sliceWidth is the target width of the slices churn's timed phases are
// cut into. Other tenants of a shared host slow a run for seconds to
// minutes at a time; the best slice is the program's speed when they let
// it run, and a regression in the program slows every slice. On a fresh
// rumord the open-loop p50 also falls by about a quarter through phase A,
// so the best slice is usually a late one.
const sliceWidth = 3 * time.Second

// slices cuts a phase that began at start and lasted dur into equal
// slices about sliceWidth wide (at least one) and groups the latencies of
// xs by the time at gives for each. It also returns the slice width.
func slices(xs []sample, start time.Time, dur time.Duration, at func(sample) time.Time) ([][]float64, time.Duration) {
	n := max(1, int(dur/sliceWidth))
	width := dur / time.Duration(n)
	out := make([][]float64, n)
	for _, s := range xs {
		k := min(max(int(at(s).Sub(start)/width), 0), n-1)
		out[k] = append(out[k], s.ms)
	}
	return out, width
}

func sentAt(s sample) time.Time { return s.sched }

func doneAt(s sample) time.Time { return s.sched.Add(time.Duration(s.ms * 1e6)) }

// bestSlice sets e2eName to the best value f gives over the slices (the
// lowest when lower is set, else the highest) and prints every slice's
// value. A slice f refuses fails the run.
func (r *runner) bestSlice(e2eName, name, unit string, lower bool, sl [][]float64, f func([]float64) (float64, error)) {
	best := math.NaN()
	each := make([]string, len(sl))
	for i, xs := range sl {
		v, err := f(xs)
		if err != nil {
			r.m.fail(fmt.Errorf("%s, slice %d: %w", name, i, err))
			return
		}
		if math.IsNaN(best) || (lower && v < best) || (!lower && v > best) {
			best = v
		}
		each[i] = strconv.FormatFloat(v, 'f', 3, 64)
	}
	r.e2e(e2eName, unit, best)
	r.say("  %-28s %12.4f %-6s (best of %d slices: %s)", name+"_best", best, unit, len(sl), strings.Join(each, " "))
}

// timed returns the latencies of the timed open-loop phase, both halves.
func (d *session) timed(class string) []float64 {
	return append(d.e2e("A", class), d.e2e("A-traced", class)...)
}

func (r *runner) e2e(name, unit string, v float64) {
	if !r.traced {
		r.m.set(name, unit, v)
	}
}

func (r *runner) layer(name, unit string, v float64) {
	if r.traced {
		r.m.set(name, unit, v)
	}
}

// stat computes a percentile for a descriptive line and, when e2eName is
// set and the run is untraced, an end-to-end metric. A refused percentile
// fails the run only when it backs a metric.
func (r *runner) stat(e2eName, name, unit string, xs []float64, q float64) {
	v, err := percentile(xs, q)
	if err != nil && e2eName == "" {
		r.say("  %-28s refused: %v", name, err)
		return
	}
	if err != nil {
		r.m.fail(fmt.Errorf("%s: %w", name, err))
		return
	}
	if e2eName != "" {
		r.e2e(e2eName, unit, v)
	}
	r.measured(name, unit, v, len(xs))
}

// ---- solve -------------------------------------------------------------

var solveJobs = []struct{ class, params string }{
	{"fbsm", `"grid":100`},
	{"abm", `"trials":4,"nodes":10000`},
	{"ode", ``},
}

func runSolve(r *runner) (result, error) {
	cl := newClient()
	srv, d, err := r.start(cl, false, "-workers", "1", "-inner-workers", "2")
	if err != nil {
		return result{}, err
	}
	defer srv.stop()
	seeds := r.seeds()
	w, err := r.open(cl, srv, d)
	if err != nil {
		return result{}, err
	}
	var i int
	defer preciseWakeups()()
	t0 := time.Now()
	r.timed(d, time.Duration(r.seconds)*time.Second, "fbsm", func(label string, dur time.Duration) {
		end := time.Now().Add(dur)
		for now := time.Now(); now.Before(end); now = time.Now() {
			j := solveJobs[i%len(solveJobs)]
			i++
			p := fmt.Sprintf(`"seed":%d`, seeds.next())
			if j.params != "" {
				p = j.params + "," + p
			}
			d.runJob(r.ctx, j.class, label, "post_jobs", "/v1/jobs", jobBody(j.class, p), now, now, solvePoll, nil)
		}
	})
	elapsed := time.Since(t0)
	if err := r.close(cl, srv, d, w); err != nil {
		return result{}, err
	}
	done := d.timed("")
	fbsm, abm, ode := d.timed("fbsm"), d.timed("abm"), d.timed("ode")
	short := append(append([]float64(nil), abm...), ode...)
	r.say("solve: %d jobs in %.1f s (closed loop, one client)", len(done), elapsed.Seconds())
	r.stat("p50_ms", "fbsm_e2e_p50_ms", "ms", fbsm, 0.50)
	// A run yields about 40 plans, and under 30 when the host is slow;
	// p60 keeps ten of them beyond it in both cases. Tails are printed,
	// not gated: between runs of the same code they moved by 20-25%.
	r.stat("", "fbsm_e2e_p60_ms", "ms", fbsm, 0.60)
	r.stat("", "abm_e2e_p50_ms", "ms", abm, 0.50)
	r.stat("", "ode_e2e_p50_ms", "ms", ode, 0.50)
	r.stat("aux_p50_ms", "short_e2e_p50_ms", "ms", short, 0.50)
	r.stat("", "short_e2e_p80_ms", "ms", short, 0.80)
	perS := float64(len(done)) / elapsed.Seconds()
	r.e2e("per_s", "1/s", perS)
	r.measured("solve_jobs_per_s", "1/s", perS, len(done))
	return r.finish(cl, srv, d)
}

// hitChecks maps each warmed key's request body to the inline check of a
// later hit on it: answered from cache, with its first cold result's
// bytes.
func hitChecks(kept []*outcome) map[string]func(*jobView) error {
	checks := make(map[string]func(*jobView) error)
	for _, o := range kept {
		if o.class != "warm" || !o.ok {
			continue
		}
		first := o.job.Result
		checks[string(o.body)] = func(j *jobView) error {
			if !j.CacheHit {
				return fmt.Errorf("hot key was not answered from cache")
			}
			if !bytes.Equal(j.Result, first) {
				return fmt.Errorf("cache hit differs from the key's first cold result")
			}
			return nil
		}
	}
	return checks
}

// ---- churn -------------------------------------------------------------

func runChurn(r *runner) (result, error) {
	cl := newClient()
	srv, d, err := r.start(cl, true)
	if err != nil {
		return result{}, err
	}
	defer srv.stop()
	seeds := r.seeds()
	w, err := r.open(cl, srv, d)
	if err != nil {
		return result{}, err
	}
	total := time.Duration(r.seconds) * time.Second
	durA := time.Duration(float64(total) * phaseA)
	var startA time.Time
	var lenA time.Duration // of the untraced open loop
	r.timed(d, durA, "", func(label string, dur time.Duration) {
		if label == "A" {
			startA, lenA = time.Now(), dur
		}
		openLoop(dur, churnRate, maxConns, func(i int, sched, due time.Time) {
			body := thresholdBody(seeds.next())
			if i%4 == 3 {
				d.runJob(r.ctx, "qcold", label, "post_query", "/v1/query", body, sched, due, churnPoll, nil)
				return
			}
			d.runJob(r.ctx, "cold", label, "post_jobs", "/v1/jobs", body, sched, due, churnPoll, nil)
		})
	})
	var completed atomic.Int64
	startB := time.Now()
	elapsed := closedLoop(total-durA, maxConns, func(i int, now time.Time) {
		if o := d.runJob(r.ctx, "cold", "B", "post_jobs", "/v1/jobs", thresholdBody(seeds.next()), now, now, churnPoll, nil); o.ok {
			completed.Add(1)
		}
	})
	dataBytes := dirBytes(srv.dataDir)
	if err := r.close(cl, srv, d, w); err != nil {
		return result{}, err
	}
	all, fallback := d.timed(""), d.timed("qcold")
	r.stat("", "churn_e2e_p50_ms", "ms", all, 0.50)
	r.stat("", "churn_e2e_p90_ms", "ms", all, 0.90)
	r.stat("", "churn_e2e_p99_ms", "ms", all, 0.99)
	r.stat("", "churn_query_e2e_p50_ms", "ms", fallback, 0.50)
	r.stat("", "churn_query_e2e_p90_ms", "ms", fallback, 0.90)
	jps := float64(completed.Load()) / elapsed.Seconds()
	r.measured("churn_jobs_per_s", "1/s", jps, int(completed.Load()))
	p50 := func(xs []float64) (float64, error) { return percentile(xs, 0.50) }
	sl, _ := slices(d.samples("A", ""), startA, lenA, sentAt)
	r.bestSlice("p50_ms", "churn_e2e_p50_ms", "ms", true, sl, p50)
	sl, _ = slices(d.samples("A", "qcold"), startA, lenA, sentAt)
	r.bestSlice("aux_p50_ms", "churn_query_e2e_p50_ms", "ms", true, sl, p50)
	sl, width := slices(d.samples("B", "cold"), startB, total-durA, doneAt)
	r.bestSlice("per_s", "churn_jobs_per_s", "1/s", false, sl, func(xs []float64) (float64, error) {
		return float64(len(xs)) / width.Seconds(), nil
	})
	r.measured("rumord_data_dir_bytes_per_job", "B", float64(dataBytes)/float64(d.attempted), d.attempted)
	return r.finish(cl, srv, d)
}

// finish runs the probes on traced runs, stops rumord, checks the kept
// answers, runs the layer suite on traced runs, and fills in the counts.
func (r *runner) finish(cl *http.Client, srv *rumord, d *session) (result, error) {
	sessions := []*session{d}
	if r.traced {
		p, err := r.probe(cl, srv)
		if err != nil {
			return result{}, err
		}
		sessions = append(sessions, p)
	}
	srv.stop()

	var sum session
	for _, x := range sessions {
		sum.attempted += x.attempted
		sum.failed += x.failed
		sum.wrong = append(sum.wrong, x.wrong...)
		sum.kept = append(sum.kept, x.kept...)
		sum.polls += x.polls
		sum.polled += x.polled
	}
	r.wrong = append(r.wrong, sum.wrong...)
	if sum.polled > 0 {
		r.layer("service.polls_per_job", "count", float64(sum.polls)/float64(sum.polled))
	}

	t0 := time.Now()
	bad := r.check(sum.kept)
	r.say("checked %d job answers against the in-process service in %.2f s (queries and cache hits were checked as they arrived)",
		len(sum.kept), time.Since(t0).Seconds())
	failed := sum.failed + bad
	if r.traced {
		if err := r.layerSuite(); err != nil {
			return result{}, err
		}
		r.m.set("http.overhead_us.query", "us", r.m.get("http.rtt_us.get_query.p50")-r.m.get("service.query_us.p50"))
		r.m.set("http.overhead_us.hit", "us", r.m.get("http.rtt_us.post_jobs_hit.p50")-r.m.get("service.submit_hit_us.p50"))
		r.printLayers()
		for _, n := range notOutside {
			r.say("not from outside: %s", n)
		}
	}
	r.e2e("ok_ratio", "ratio", 1-float64(failed)/float64(sum.attempted))
	r.say("attempted %d, failed %d (fail_ratio %.6f)", sum.attempted, failed, float64(failed)/float64(sum.attempted))
	return result{Attempted: sum.attempted, Failed: failed}, nil
}

// notOutside names the per-layer metrics that are not a timing of a
// public call or a count, and where they come from instead.
var notOutside = []string{
	"core.rhs_evals.fbsm and core.rhs_bytes are computed: 4 x grid x (sweeps + 1) evaluations of 32 bytes per degree group",
	"control.costate_rhs_ns is derived: control.backward_ms / (4 x grid x sweeps)",
	"control.{forward,backward,update}_ms are split by Progress event timestamps, in a second optimisation with an event per integration step",
	"store.bytes_per_job is an in-process store's growth at churn's job shape; churn prints rumord's own data-dir growth as rumord_data_dir_bytes_per_job",
	"surface.build_ms is an in-process build; rumord's own build is part of the probes' set-up",
	"http.* and service.{queue_wait,exec,serialize}_ms come from 1000 serial probes per route after the timed phases, not from the workload's own traffic",
}

// check compares each kept job answer with the in-process service, byte
// for byte; a cold request must not have been answered from cache. It
// returns how many answers were wrong (and lists them).
func (r *runner) check(kept []*outcome) int {
	bad := 0
	for _, o := range kept {
		if !o.ok {
			continue
		}
		err := error(nil)
		if o.job.CacheHit {
			err = fmt.Errorf("cold request answered from cache")
		} else {
			var want json.RawMessage
			if want, err = r.ref.expected(o.body); err == nil {
				err = samePayload(o.job.Result, want)
			}
		}
		if err != nil {
			o.ok, o.err = false, err.Error()
			bad++
			if len(r.wrong) < maxWrong {
				r.wrong = append(r.wrong, fmt.Sprintf("%s %s: %v", o.class, o.body, err))
			}
		}
	}
	return bad
}

// probe measures each HTTP route on the still-running rumord with a fixed
// number of serial requests, after the timed phases: the per-route round
// trips, the server's segment times on cold jobs, and a /metrics scrape.
// Probes are not traced and do not count toward the workload's latencies.
func (r *runner) probe(cl *http.Client, srv *rumord) (*session, error) {
	p := newSession(cl, srv.base)
	if err := loadgen.New(loadgen.Config{BaseURL: srv.base, Client: cl}).BuildQuerySurface(r.ctx); err != nil {
		return nil, fmt.Errorf("probe surface: %w", err)
	}
	getPool, err := r.pool(5)
	if err != nil {
		return nil, err
	}
	postPool, err := r.pool(6)
	if err != nil {
		return nil, err
	}
	seeds := &counter{base: r.seed*10_000_000 + 9_000_000}
	hotBody := jobBody("ode", fmt.Sprintf(`"seed":%d`, seeds.next()))
	now := time.Now()
	if o := p.runJob(r.ctx, "warm", "probe", "post_jobs", "/v1/jobs", hotBody, now, now, solvePoll, nil); !o.ok {
		return nil, fmt.Errorf("probe warm: %s", o.err)
	}
	hit := hitChecks(p.kept)[string(hotBody)]
	var segQ, segE, segS []float64
	for i := 0; i < probes; i++ {
		now = time.Now()
		p.query(r.ctx, "probe", http.MethodGet, &getPool[i%poolSize], now, now)
		now = time.Now()
		o := p.runJob(r.ctx, "cold", "probe", "post_jobs", "/v1/jobs", thresholdBody(seeds.next()), now, now, churnPoll, nil)
		if o.ok && o.job.Latency != nil {
			segQ = append(segQ, o.job.Latency.QueueWaitMS)
			segE = append(segE, o.job.Latency.ExecuteMS)
			segS = append(segS, o.job.Latency.SerializeMS)
		}
		now = time.Now()
		p.runJob(r.ctx, "hit", "probe", "post_jobs_hit", "/v1/jobs", hotBody, now, now, solvePoll, hit)
		now = time.Now()
		p.query(r.ctx, "probe", http.MethodPost, &postPool[i%poolSize], now, now)
	}
	var scrapes []float64
	for i := 0; i < 21; i++ {
		_, took, err := scrape(r.ctx, cl, srv.base, "rumor_runtime_goroutines")
		if err != nil {
			return nil, err
		}
		scrapes = append(scrapes, float64(took)/1e6)
	}
	for _, route := range []string{"post_jobs", "get_job", "get_query", "post_query", "post_jobs_hit"} {
		r.m.pct("http.rtt_us."+route+".p50", "us", p.rttUS[route], 0.50, 1)
		r.m.pct("http.rtt_us."+route+".p99", "us", p.rttUS[route], 0.99, 1)
	}
	for _, seg := range []struct {
		name string
		xs   []float64
	}{{"queue_wait", segQ}, {"exec", segE}, {"serialize", segS}} {
		r.m.pct("service."+seg.name+"_ms.p50", "ms", seg.xs, 0.50, 1)
		r.m.pct("service."+seg.name+"_ms.p99", "ms", seg.xs, 0.99, 1)
	}
	r.m.set("http.rtt_ms.metrics", "ms", median(scrapes))
	return p, nil
}
