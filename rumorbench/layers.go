package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"rumornet/internal/abm"
	"rumornet/internal/control"
	"rumornet/internal/core"
	"rumornet/internal/degreedist"
	"rumornet/internal/digg"
	"rumornet/internal/graph"
	"rumornet/internal/obs"
	"rumornet/internal/ode"
	"rumornet/internal/service"
	"rumornet/internal/store"
	"rumornet/internal/surface"
)

// The layer suite replays the workloads' requests against each layer's
// public functions in-process, after rumord has stopped, so nothing else
// competes for the CPUs. Every traced run measures the whole suite: the
// layers are shared, and each workload's ladder reads the ones it loads.

// canonical returns the request with every parameter the service would
// default written out, which service.ExecuteRequest requires. The suite
// checks that it computes what Service.Submit computes for the short
// form, so a changed default shows up as a wrong answer, not as a
// silently different workload.
func canonical(req service.Request) service.Request {
	p := &req.Params
	fbsm := req.Type == service.JobFBSM
	def := func(v *float64, d float64) {
		if *v == 0 {
			*v = d
		}
	}
	def(&p.Alpha, 0.01)
	if fbsm {
		def(&p.Eps1, 0.05)
		def(&p.Eps2, 0.02)
		if p.Lambda0 == 0 {
			def(&p.R0, 2.1661)
		}
		def(&p.Tf, 100)
		def(&p.C1, 5)
		def(&p.C2, 10)
		def(&p.EpsMax, 0.8)
		if p.Grid == 0 {
			p.Grid = 1000
		}
	} else {
		def(&p.Eps1, 0.2)
		def(&p.Eps2, 0.05)
		if p.R0 == 0 {
			def(&p.Lambda0, 0.001)
		}
		def(&p.Tf, 150)
	}
	def(&p.I0, 0.1)
	if p.Points == 0 {
		p.Points = 500
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if req.Type == service.JobABM {
		if p.Nodes == 0 {
			p.Nodes = 20000
		}
		def(&p.Dt, 0.5)
	}
	if req.Scenario == "" {
		req.Scenario = service.BuiltinScenario
	}
	if req.Class == "" {
		req.Class = service.ClassInteractive
	}
	return req
}

// The workloads' job shapes, as the suite replays them.
var (
	fbsmReq      = service.Request{Type: service.JobFBSM, Params: service.Params{Grid: 100}}
	abmReq       = service.Request{Type: service.JobABM, Params: service.Params{Trials: 4, Nodes: 10000}}
	odeReq       = service.Request{Type: service.JobODE}
	thresholdReq = service.Request{Type: service.JobThreshold, Params: service.Params{R0: 1.6}}
)

// timeEach runs fn n times and returns the per-call durations in ns.
func timeEach(n int, fn func(i int)) []float64 {
	xs := make([]float64, n)
	for i := 0; i < n; i++ {
		t := time.Now()
		fn(i)
		xs[i] = float64(time.Since(t))
	}
	return xs
}

// perCall times batches of n calls and returns the median ns per call,
// for calls too short to time one at a time.
func perCall(batches, n int, fn func()) float64 {
	var xs []float64
	for b := 0; b < batches; b++ {
		t := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		xs = append(xs, float64(time.Since(t))/float64(n))
	}
	return median(xs)
}

func (r *runner) layerSuite() error {
	ref := r.ref
	ctx := r.ctx
	t0 := time.Now()
	omega := degreedist.OmegaSaturating(0.5, 0.5)
	dist, err := digg.Dist(rand.New(rand.NewSource(1)))
	if err != nil {
		return err
	}

	// core: the mean-field right-hand side on the FBSM job's model.
	fp := canonical(fbsmReq).Params
	m, err := core.CalibratedModel(dist, fp.Alpha, fp.Eps1, fp.Eps2, fp.R0, omega)
	if err != nil {
		return err
	}
	ic, err := m.UniformIC(fp.I0)
	if err != nil {
		return err
	}
	dydt := make([]float64, len(ic))
	r.m.set("core.rhs_ns", "ns", perCall(7, 2000, func() { m.RHS(1, ic, dydt) }))

	// ode: one RK4 step, and the ODE job's whole integration.
	st := ode.NewRK4(len(ic))
	next := make([]float64, len(ic))
	r.m.set("ode.rk4_step_ns", "ns", perCall(7, 500, func() { st.Step(m.RHS, 1, ic, 0.05, next) }))
	op := canonical(odeReq).Params
	om, err := core.NewModel(dist, core.Params{Alpha: op.Alpha, Eps1: op.Eps1, Eps2: op.Eps2,
		Lambda: degreedist.LambdaLinear(op.Lambda0), Omega: omega})
	if err != nil {
		return err
	}
	oic, err := om.UniformIC(op.I0)
	if err != nil {
		return err
	}
	rec := int(math.Ceil(2000 / float64(op.Points-1)))
	var simErr error
	r.m.set("ode.solve_ms", "ms", median(timeEach(3, func(int) {
		if _, err := om.SimulateCtx(ctx, oic, op.Tf, &core.SimOptions{Step: op.Tf / 2000, Record: rec}); err != nil {
			simErr = err
		}
	}))/1e6)
	if simErr != nil {
		return simErr
	}

	// control: the FBSM job's optimisation, once as the service runs it
	// and once with a progress event per integration step, whose
	// timestamps split each sweep into forward, backward and update.
	opts := control.Options{Grid: fp.Grid, MaxIter: 250, Eps1Max: fp.EpsMax, Eps2Max: fp.EpsMax,
		Cost: control.Cost{C1: fp.C1, C2: fp.C2}, Progress: func(obs.Event) {}}
	t := time.Now()
	pol, err := control.OptimizeCtx(ctx, m, ic, fp.Tf, opts)
	if err != nil {
		return err
	}
	r.m.set("control.solve_ms", "ms", float64(time.Since(t))/1e6)
	r.m.set("control.sweeps", "count", float64(pol.Iterations))
	evals := 4 * float64(fp.Grid) * float64(pol.Iterations+1)
	r.m.set("core.rhs_evals.fbsm", "count", evals)
	// Per evaluation the kernel reads the 2n-state and writes its 2n
	// derivative: 32 bytes per degree group.
	r.m.set("core.rhs_bytes", "B", evals*32*float64(m.N()))
	var stages stageClock
	opts.ProgressEvery = 1
	opts.Progress = stages.observe
	stages.start()
	if _, err := control.OptimizeCtx(ctx, m, ic, fp.Tf, opts); err != nil {
		return err
	}
	r.m.set("control.forward_ms", "ms", stages.fwd.Seconds()*1e3)
	r.m.set("control.backward_ms", "ms", stages.bwd.Seconds()*1e3)
	r.m.set("control.update_ms", "ms", stages.upd.Seconds()*1e3)
	// Derived: one co-state RHS per RK4 stage of every backward step.
	r.m.set("control.costate_rhs_ns", "ns", float64(stages.bwd)/(4*float64(fp.Grid)*float64(stages.sweeps)))

	// abm and par: the ABM job's graph, and its trials on 1 and 2 workers.
	ap := canonical(abmReq).Params
	lam := ap.Lambda0
	if ap.R0 > 0 {
		if lam, err = core.CalibrateLambdaScale(dist, ap.Alpha, ap.Eps1, ap.Eps2, ap.R0, omega); err != nil {
			return err
		}
	}
	var g *graph.Graph
	var gerr error
	r.m.set("abm.graph_ms", "ms", median(timeEach(3, func(int) {
		rng := rand.New(rand.NewSource(ap.Seed))
		g, gerr = graph.ConfigurationModel(sampleDegrees(dist, ap.Nodes, rng), rng)
	}))/1e6)
	if gerr != nil {
		return gerr
	}
	var runErr error
	runMS := func(workers int) float64 {
		return median(timeEach(3, func(int) {
			_, err := abm.MeanRunCtx(ctx, g, abm.Config{
				Lambda: degreedist.LambdaLinear(lam), Omega: omega, Eps1: ap.Eps1, Eps2: ap.Eps2,
				I0: ap.I0, Dt: ap.Dt, Steps: int(ap.Tf / ap.Dt), Mode: abm.ModeQuenched, Workers: workers,
			}, ap.Trials, rand.New(rand.NewSource(ap.Seed)))
			if err != nil {
				runErr = err
			}
		})) / 1e6
	}
	w1, w2 := runMS(1), runMS(2)
	if runErr != nil {
		return runErr
	}
	r.m.set("abm.run_ms.w1", "ms", w1)
	r.m.set("abm.run_ms.w2", "ms", w2)
	r.m.set("abm.speedup.w2", "x", w1/w2)

	// service execute: each job type through the executor every node
	// shares; its bytes must equal Service.Submit's.
	sc, err := ref.svc.Scenario(service.BuiltinScenario)
	if err != nil {
		return err
	}
	for _, c := range []struct {
		name string
		req  service.Request
		n    int
	}{{"fbsm", fbsmReq, 1}, {"abm", abmReq, 3}, {"ode", odeReq, 3}, {"threshold", thresholdReq, 51}} {
		var raw json.RawMessage
		var xerr error
		ms := median(timeEach(c.n, func(int) {
			raw, xerr = service.ExecuteRequest(ctx, sc, canonical(c.req), 2, nil)
		})) / 1e6
		if xerr != nil {
			return fmt.Errorf("execute %s: %w", c.name, xerr)
		}
		body, _ := json.Marshal(c.req)
		want, err := ref.expected(body)
		if err != nil {
			return err
		}
		if err := samePayload(raw, want); err != nil {
			r.wrong = append(r.wrong, fmt.Sprintf("ExecuteRequest(%s): %v", c.name, err))
		}
		r.m.set("service.execute_ms."+c.name, "ms", ms)
		r.m.set("service.result_bytes."+c.name, "B", float64(len(raw)))
	}

	if err := r.serviceLayers(ref, sc); err != nil {
		return err
	}
	if err := r.storeLayer(sc); err != nil {
		return err
	}

	// obs: the registry lookup httpObserve makes on every request.
	reg := obs.NewRegistry()
	labels := []obs.Label{obs.L("method", "GET"), obs.L("code", "200")}
	reg.Counter("rumor_http_requests_total", "HTTP requests.", labels...).Inc()
	r.m.set("obs.series_lookup_ns", "ns", perCall(7, 20000, func() {
		reg.Counter("rumor_http_requests_total", "HTTP requests.", labels...).Inc()
	}))
	r.say("layer suite took %.2f s", time.Since(t0).Seconds())
	return nil
}

// stageClock turns the FBSM progress stream into stage times: a sweep's
// forward integration runs from the previous sweep's end to its last
// fbsm/forward event, the backward one from there to its last
// fbsm/backward event, and the update from there to the sweep's fbsm
// event. The optimiser calls Progress from one goroutine.
type stageClock struct {
	last          time.Time
	fwd, bwd, upd time.Duration
	sweeps        int
}

func (c *stageClock) start() { c.last = time.Now() }

func (c *stageClock) observe(ev obs.Event) {
	now := time.Now()
	switch ev.Stage {
	case obs.StageFBSMForward:
		c.fwd += now.Sub(c.last)
	case obs.StageFBSMBackward:
		c.bwd += now.Sub(c.last)
	case obs.StageFBSM:
		c.upd += now.Sub(c.last)
		c.sweeps++
	default:
		return
	}
	c.last = now
}

// serviceLayers times the service's in-process entry points: a cold
// Submit on a data-dir service, a cache-hit Submit, a surface Query, the
// surface build, Surface.Eval, and how much of its error bound the
// surface's answers use against exact results.
func (r *runner) serviceLayers(ref *reference, sc *service.Scenario) error {
	ctx := r.ctx
	dir := filepath.Join(r.work, "layers-store")
	svc, err := service.New(service.Config{Workers: 1, StoreDir: dir})
	if err != nil {
		return err
	}
	defer svc.Close()
	var serr error
	// Submit alone is timed; the wait for the job to finish is not.
	var submit []float64
	for i := 0; i < probes; i++ {
		req := thresholdReq
		req.Params.Seed = r.seed*10_000_000 + 8_500_000 + int64(i)
		t := time.Now()
		job, err := svc.Submit(req)
		submit = append(submit, float64(time.Since(t)))
		if err != nil {
			return err
		}
		for !job.Status.Terminal() {
			time.Sleep(20 * time.Microsecond)
			job, _ = svc.Job(job.ID)
		}
	}
	r.m.pct("service.submit_cold_us.p50", "us", submit, 0.50, 1e-3)
	r.m.pct("service.submit_cold_us.p99", "us", submit, 0.99, 1e-3)

	hot := odeReq
	hot.Params.Seed = 2
	if _, err := submitWait(svc, hot); err != nil {
		return err
	}
	hits := timeEach(2*probes, func(int) {
		if _, err := svc.Submit(hot); err != nil {
			serr = err
		}
	})
	if serr != nil {
		return serr
	}
	r.m.pct("service.submit_hit_us.p50", "us", hits, 0.50, 1e-3)
	r.m.pct("service.submit_hit_us.p99", "us", hits, 0.99, 1e-3)

	t := time.Now()
	if err := waitSurface(ctx, svc); err != nil {
		return err
	}
	r.m.set("surface.build_ms", "ms", float64(time.Since(t))/1e6)
	queries := timeEach(2*probes, func(i int) {
		e1, e2 := hullPoint(r.seed, 7, i)
		q, _ := queryOf(e1, e2)
		if res, err := svc.Query(q); err != nil || res.Source != "surface" {
			serr = fmt.Errorf("in-process query missed the surface: %v", err)
		}
	})
	if serr != nil {
		return serr
	}
	r.m.pct("service.query_us.p50", "us", queries, 0.50, 1e-3)
	r.m.pct("service.query_us.p99", "us", queries, 0.99, 1e-3)

	// Surface.Eval on the same grid, assembled from exact results.
	sw := querySweep()
	var axes []surface.Axis
	for _, a := range sw.Axes {
		vals := make([]float64, a.Points)
		for k := range vals {
			vals[k] = a.Min + float64(k)*(a.Max-a.Min)/float64(a.Points-1)
		}
		axes = append(axes, surface.Axis{Name: a.Name, Values: vals})
	}
	exact := func(eps1, eps2 float64) (map[string]float64, error) {
		req := thresholdReq
		req.Params = service.Params{Eps1: eps1, Eps2: eps2}
		raw, err := service.ExecuteRequest(ctx, sc, canonical(req), 1, nil)
		if err != nil {
			return nil, err
		}
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			return nil, err
		}
		out := make(map[string]float64)
		for k, v := range m {
			if f, ok := v.(float64); ok {
				out[k] = f
			}
		}
		return out, nil
	}
	fields := []string{"r0", "required_eps1", "required_eps2"}
	grid := make(map[string][]float64)
	for _, e1 := range axes[0].Values {
		for _, e2 := range axes[1].Values {
			v, err := exact(e1, e2)
			if err != nil {
				return err
			}
			for _, f := range fields {
				grid[f] = append(grid[f], v[f])
			}
		}
	}
	surf, err := surface.New(surface.Spec{JobType: "threshold", Axes: axes, Fields: fields}, grid)
	if err != nil {
		return err
	}
	coords := make([][]float64, 1024)
	for i := range coords {
		e1, e2 := hullPoint(r.seed, 8, i)
		q, _ := queryOf(e1, e2)
		coords[i] = []float64{q.Params.Eps1, q.Params.Eps2}
	}
	var eerr error
	k := 0
	r.m.set("surface.eval_ns", "ns", perCall(7, 4096, func() {
		if _, _, err := surf.Eval(coords[k%len(coords)]); err != nil {
			eerr = err
		}
		k++
	}))
	if eerr != nil {
		return eerr
	}

	// Worst share of its own bound an interpolated answer used.
	worst, zeroBound := 0.0, 0
	for i := 0; i < 32; i++ {
		e1, e2 := hullPoint(r.seed, 9, i)
		q, _ := queryOf(e1, e2)
		res, err := svc.Query(q)
		if err != nil {
			return err
		}
		ex, err := exact(q.Params.Eps1, q.Params.Eps2)
		if err != nil {
			return err
		}
		names := make([]string, 0, len(res.Values))
		for f := range res.Values {
			names = append(names, f)
		}
		sort.Strings(names)
		for _, f := range names {
			ratio := boundRatio(res.Values[f], ex[f], res.ErrorBound[f])
			if math.IsInf(ratio, 1) {
				zeroBound++
				continue
			}
			worst = math.Max(worst, ratio)
		}
	}
	r.m.set("surface.bound_ratio_max", "ratio", worst)
	if zeroBound > 0 {
		r.say("surface: %d sampled answers erred with a zero error bound (excluded from surface.bound_ratio_max)", zeroBound)
	}
	return nil
}

// storeLayer times the WAL appends and result writes of a churn job at
// churn's sizes, and the bytes a job leaves on disk.
func (r *runner) storeLayer(sc *service.Scenario) error {
	dir := filepath.Join(r.work, "layers-wal")
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	reqBody, _ := json.Marshal(canonical(thresholdReq))
	payload, err := service.ExecuteRequest(r.ctx, sc, canonical(thresholdReq), 1, nil)
	if err != nil {
		st.Close()
		return err
	}
	var appends, puts []float64
	for i := 0; i < probes; i++ {
		id := fmt.Sprintf("j-%06d", i+1)
		key := fmt.Sprintf("%064x", i+1)
		t := time.Now()
		err1 := st.AppendSubmitted(store.JobState{ID: id, Seq: uint64(i + 1), Request: reqBody, Key: key,
			SubmittedAt: t, Class: string(service.ClassInteractive)})
		err2 := st.AppendStarted(id)
		t1 := time.Now()
		err3 := st.PutResult(key, payload)
		t2 := time.Now()
		err4 := st.AppendFinished(id, string(service.StatusSucceeded))
		t3 := time.Now()
		if err := firstErr(err1, err2, err3, err4); err != nil {
			st.Close()
			return err
		}
		appends = append(appends, float64(t1.Sub(t)+t3.Sub(t2))/3)
		puts = append(puts, float64(t2.Sub(t1)))
	}
	if err := st.Close(); err != nil {
		return err
	}
	r.m.set("store.append_us", "us", median(appends)/1e3)
	r.m.set("store.put_result_us", "us", median(puts)/1e3)
	r.m.set("store.bytes_per_job", "B", float64(dirBytes(dir))/probes)
	return os.RemoveAll(dir)
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sampleDegrees draws an out-degree sequence by inverse-CDF sampling, the
// way the ABM executor builds its graph.
func sampleDegrees(d *degreedist.Dist, n int, rng *rand.Rand) []int {
	cdf := make([]float64, d.N())
	var cum float64
	for i := 0; i < d.N(); i++ {
		cum += d.Prob(i)
		cdf[i] = cum
	}
	seq := make([]int, n)
	for i := range seq {
		g := sort.SearchFloat64s(cdf, rng.Float64())
		if g >= d.N() {
			g = d.N() - 1
		}
		seq[i] = d.Degree(g)
	}
	return seq
}
