package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rumornet/internal/surface"
)

// This file is the response-surface serving tier (DESIGN.md §15): sweep
// specs expand into ordinary batch jobs through the existing queue, the
// per-point scalars fold into a packed surface artifact (internal/surface),
// and interactive queries answer by multilinear interpolation in
// microseconds — with an explicit error bound — falling back to an exact
// interactive job when the query leaves the covered region or the bound
// exceeds the caller's tolerance. Artifacts persist content-addressed in
// the store, so a restart reloads hours of sweep work in milliseconds.

// Query outcomes (the outcome label of rumor_surface_queries_total).
const (
	outcomeHit               = "hit"
	outcomeFallbackUncovered = "fallback_uncovered"
	outcomeFallbackTolerance = "fallback_tolerance"
)

// surfaceBackoff is how long a build waits for the queue to move when a
// grid point is refused and it has none of its own in flight to finish.
const surfaceBackoff = 20 * time.Millisecond

// surfaceBuildWindow bounds the grid-point jobs a build keeps in flight:
// enough to keep the batch queue fed without monopolizing its depth.
const surfaceBuildWindow = 16

// axisAccessor reads and writes one sweepable Params field by name.
type axisAccessor struct {
	get func(*Params) float64
	set func(*Params, float64)
}

// axisParams enumerates the parameters a sweep may grid over. All are
// strictly positive in any valid request, which resolveSweep exploits: a
// zero axis value would be re-resolved by withDefaults and silently change
// the grid, so positivity is enforced up front.
var axisParams = map[string]axisAccessor{
	"alpha":   {func(p *Params) float64 { return p.Alpha }, func(p *Params, v float64) { p.Alpha = v }},
	"eps1":    {func(p *Params) float64 { return p.Eps1 }, func(p *Params, v float64) { p.Eps1 = v }},
	"eps2":    {func(p *Params) float64 { return p.Eps2 }, func(p *Params, v float64) { p.Eps2 = v }},
	"r0":      {func(p *Params) float64 { return p.R0 }, func(p *Params, v float64) { p.R0 = v }},
	"lambda0": {func(p *Params) float64 { return p.Lambda0 }, func(p *Params, v float64) { p.Lambda0 = v }},
	"i0":      {func(p *Params) float64 { return p.I0 }, func(p *Params, v float64) { p.I0 = v }},
	"tf":      {func(p *Params) float64 { return p.Tf }, func(p *Params, v float64) { p.Tf = v }},
}

// surfaceFields enumerates the scalar result fields a surface may extract,
// by job type (trajectory arrays cannot interpolate into one tensor cell).
var surfaceFields = map[JobType]map[string]bool{
	JobODE:       {"r0": true, "peak_t": true, "peak_i": true, "final_i": true},
	JobThreshold: {"r0": true, "s0": true, "elast_alpha": true, "elast_eps1": true, "elast_eps2": true, "required_eps1": true, "required_eps2": true},
	JobABM:       {"peak_i": true, "final_i": true},
	JobFBSM:      {"terminal": true, "running": true, "total": true, "iterations": true},
}

// defaultSurfaceFields is the field set a sweep records when the spec
// names none.
var defaultSurfaceFields = map[JobType][]string{
	JobODE:       {"final_i", "peak_i", "peak_t"},
	JobThreshold: {"r0", "required_eps1", "required_eps2"},
	JobABM:       {"final_i", "peak_i"},
	JobFBSM:      {"total", "terminal", "running"},
}

// SweepAxis is one dimension of a sweep spec: explicit Values, or a
// Min/Max/Points linear grid.
type SweepAxis struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values,omitempty"`
	Min    float64   `json:"min,omitempty"`
	Max    float64   `json:"max,omitempty"`
	Points int       `json:"points,omitempty"`
}

// SweepSpec is the body of POST /v1/surfaces: the base request every grid
// point shares, the axes to grid over, and the scalar output fields to
// record. The grid points run as ordinary batch jobs through the queue —
// cached, WAL-logged, leasable to cluster workers — and fold into one
// surface artifact when the last one lands.
type SweepSpec struct {
	Type     JobType     `json:"type"`
	Scenario string      `json:"scenario,omitempty"`
	Params   Params      `json:"params"`
	Axes     []SweepAxis `json:"axes"`
	// Fields are the scalar result fields to extract per grid point
	// (default: the type's documented set).
	Fields []string `json:"fields,omitempty"`
	// TimeoutSec is the per-grid-point job timeout (0: server default).
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
}

// Query is the body of POST /v1/query (GET encodes the same fields as URL
// parameters): an exact request the caller wants answered fast, plus the
// interpolation-error tolerance they will accept.
type Query struct {
	Type     JobType `json:"type"`
	Scenario string  `json:"scenario,omitempty"`
	Params   Params  `json:"params"`
	// Fields restricts the answer to a subset of the surface's fields
	// (default: everything the covering surface recorded).
	Fields []string `json:"fields,omitempty"`
	// Tolerance is the maximum acceptable interpolation error bound per
	// field; a covering surface whose bound exceeds it falls back to the
	// exact job path. 0 accepts any bound.
	Tolerance float64 `json:"tolerance,omitempty"`
	// TimeoutSec bounds the fallback job (0: server default).
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
}

// QueryResult is the /v1/query response envelope. Source "surface" carries
// interpolated Values with their ErrorBound; source "job" carries the
// fallback job snapshot (terminal inline when the result cache answered).
type QueryResult struct {
	Source     string             `json:"source"` // "surface" | "job"
	SurfaceKey string             `json:"surface_key,omitempty"`
	Values     map[string]float64 `json:"values,omitempty"`
	ErrorBound map[string]float64 `json:"error_bound,omitempty"`
	// Reason explains a fallback: out of covered region, or bound above
	// tolerance.
	Reason string `json:"fallback_reason,omitempty"`
	Job    *Job   `json:"job,omitempty"`
}

// SurfaceInfo is the API view of one surface (GET /v1/surfaces).
type SurfaceInfo struct {
	Key        string         `json:"key"`
	Type       JobType        `json:"type"`
	Scenario   string         `json:"scenario"`
	Status     string         `json:"status"` // "building" | "ready" | "failed"
	Error      string         `json:"error,omitempty"`
	Axes       []surface.Axis `json:"axes"`
	Fields     []string       `json:"fields"`
	Points     int            `json:"points"`
	PointsDone int            `json:"points_done"`
	Bytes      int            `json:"bytes,omitempty"`
	// ErrorBound is the per-field global interpolation bound of a ready
	// surface.
	ErrorBound map[string]float64 `json:"error_bound,omitempty"`
}

// SurfaceStats is the surface section of /v1/stats.
type SurfaceStats struct {
	Loaded   int   `json:"loaded"`
	Building int   `json:"building"`
	Failed   int   `json:"failed"`
	Bytes    int64 `json:"bytes"`
	Queries  int64 `json:"queries"`
	Hits     int64 `json:"hits"`
	// Fallbacks counts queries routed to the exact job path (uncovered
	// region or tolerance exceeded).
	Fallbacks int64   `json:"fallbacks"`
	HitRate   float64 `json:"hit_rate"`
}

// Surface entry statuses.
const (
	surfaceBuilding = "building"
	surfaceReady    = "ready"
	surfaceFailed   = "failed"
)

// surfaceEntry is the registry state of one surface. status/surf/bytes/
// errMsg are guarded by surfaceManager.mu; pointsDone is atomic so the
// build goroutine updates progress without the lock.
type surfaceEntry struct {
	key        string
	spec       surface.Spec
	baseParams Params // unmarshaled spec.Base, for query matching
	status     string
	errMsg     string
	surf       *surface.Surface
	size       int
	pointsDone atomic.Int64
}

// surfaceManager is the registry behind /v1/surfaces and /v1/query.
type surfaceManager struct {
	mu      sync.RWMutex
	entries map[string]*surfaceEntry
	order   []string // insertion order; lookups scan newest first

	hits      atomic.Int64
	fallbacks atomic.Int64
}

func newSurfaceManager() *surfaceManager {
	return &surfaceManager{entries: make(map[string]*surfaceEntry)}
}

func (m *surfaceManager) infoLocked(e *surfaceEntry) SurfaceInfo {
	info := SurfaceInfo{
		Key:        e.key,
		Type:       JobType(e.spec.JobType),
		Scenario:   e.spec.Scenario,
		Status:     e.status,
		Error:      e.errMsg,
		Axes:       e.spec.Axes,
		Fields:     e.spec.Fields,
		Points:     e.spec.Points(),
		PointsDone: int(e.pointsDone.Load()),
		Bytes:      e.size,
	}
	if e.status == surfaceReady && e.surf != nil {
		info.ErrorBound = make(map[string]float64, len(e.spec.Fields))
		for i, f := range e.spec.Fields {
			info.ErrorBound[f] = e.surf.Bounds()[i]
		}
	}
	return info
}

func (m *surfaceManager) info(key string) (SurfaceInfo, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	e, ok := m.entries[key]
	if !ok {
		return SurfaceInfo{}, false
	}
	return m.infoLocked(e), true
}

func (m *surfaceManager) list() []SurfaceInfo {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]SurfaceInfo, 0, len(m.order))
	for i := len(m.order) - 1; i >= 0; i-- {
		if e, ok := m.entries[m.order[i]]; ok {
			out = append(out, m.infoLocked(e))
		}
	}
	return out
}

func (m *surfaceManager) readyCount() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n := 0
	for _, e := range m.entries {
		if e.status == surfaceReady {
			n++
		}
	}
	return n
}

func (m *surfaceManager) residentBytes() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var total int64
	for _, e := range m.entries {
		if e.status == surfaceReady {
			total += int64(e.size)
		}
	}
	return total
}

func (m *surfaceManager) stats() *SurfaceStats {
	m.mu.RLock()
	st := &SurfaceStats{}
	for _, e := range m.entries {
		switch e.status {
		case surfaceReady:
			st.Loaded++
			st.Bytes += int64(e.size)
		case surfaceBuilding:
			st.Building++
		case surfaceFailed:
			st.Failed++
		}
	}
	n := len(m.entries)
	m.mu.RUnlock()
	st.Hits = m.hits.Load()
	st.Fallbacks = m.fallbacks.Load()
	st.Queries = st.Hits + st.Fallbacks
	if st.Queries > 0 {
		st.HitRate = float64(st.Hits) / float64(st.Queries)
	}
	if n == 0 && st.Queries == 0 {
		return nil // tier untouched; keep /v1/stats compact
	}
	return st
}

// install publishes a ready surface (build completion or store reload).
func (m *surfaceManager) install(e *surfaceEntry, surf *surface.Surface, size int) {
	m.mu.Lock()
	e.surf = surf
	e.size = size
	e.status = surfaceReady
	e.errMsg = ""
	m.mu.Unlock()
}

func (m *surfaceManager) fail(e *surfaceEntry, err error) {
	m.mu.Lock()
	e.status = surfaceFailed
	e.errMsg = err.Error()
	m.mu.Unlock()
}

// surfaceHit is a successful interpolation: the values and bounds of the
// requested fields plus the worst bound among them.
type surfaceHit struct {
	key      string
	values   map[string]float64
	bounds   map[string]float64
	maxBound float64
}

// lookup finds a ready surface covering the canonicalized query and
// evaluates it. qblob is the canonical marshal of qp; a surface covers the
// query iff substituting the query's axis coordinates into the surface's
// base parameters reproduces qblob exactly — every non-axis parameter must
// match, and the axis coordinates must fall inside the grid hull.
func (m *surfaceManager) lookup(jobType JobType, fingerprint string, qp Params, qblob []byte, fields []string) *surfaceHit {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for i := len(m.order) - 1; i >= 0; i-- {
		e := m.entries[m.order[i]]
		if e == nil || e.status != surfaceReady ||
			e.spec.JobType != string(jobType) || e.spec.Fingerprint != fingerprint {
			continue
		}
		want := fields
		if len(want) == 0 {
			want = e.spec.Fields
		}
		idx := make([]int, 0, len(want))
		ok := true
		for _, f := range want {
			found := -1
			for j, sf := range e.spec.Fields {
				if sf == f {
					found = j
					break
				}
			}
			if found < 0 {
				ok = false
				break
			}
			idx = append(idx, found)
		}
		if !ok {
			continue
		}
		bp := e.baseParams
		coords := make([]float64, len(e.spec.Axes))
		for a, ax := range e.spec.Axes {
			acc, known := axisParams[ax.Name]
			if !known {
				ok = false
				break
			}
			coords[a] = acc.get(&qp)
			acc.set(&bp, coords[a])
		}
		if !ok {
			continue
		}
		blob, err := json.Marshal(bp)
		if err != nil || !bytes.Equal(blob, qblob) {
			continue
		}
		values, bounds, err := e.surf.Eval(coords)
		if err != nil {
			continue // out of hull here; another surface may still cover it
		}
		hit := &surfaceHit{
			key:    e.key,
			values: make(map[string]float64, len(want)),
			bounds: make(map[string]float64, len(want)),
		}
		for n, f := range want {
			hit.values[f] = values[idx[n]]
			hit.bounds[f] = bounds[idx[n]]
			if bounds[idx[n]] > hit.maxBound {
				hit.maxBound = bounds[idx[n]]
			}
		}
		return hit
	}
	return nil
}

// resolveSweep validates a sweep spec and resolves it into the canonical
// surface spec plus the base batch request its grid points submit as.
func (s *Service) resolveSweep(sw SweepSpec) (surface.Spec, Request, error) {
	if len(sw.Axes) == 0 {
		return surface.Spec{}, Request{}, fmt.Errorf("%w: sweep needs at least one axis", ErrBadRequest)
	}
	axes := make([]surface.Axis, len(sw.Axes))
	for i, ax := range sw.Axes {
		if _, known := axisParams[ax.Name]; !known {
			return surface.Spec{}, Request{}, fmt.Errorf(
				"%w: unknown axis %q (want alpha, eps1, eps2, r0, lambda0, i0 or tf)", ErrBadRequest, ax.Name)
		}
		vals := ax.Values
		if len(vals) == 0 {
			switch {
			case ax.Points < 1:
				return surface.Spec{}, Request{}, fmt.Errorf(
					"%w: axis %q needs explicit values or points >= 1", ErrBadRequest, ax.Name)
			case ax.Points == 1:
				vals = []float64{ax.Min}
			case ax.Max <= ax.Min:
				return surface.Spec{}, Request{}, fmt.Errorf(
					"%w: axis %q: max %g must exceed min %g", ErrBadRequest, ax.Name, ax.Max, ax.Min)
			default:
				vals = make([]float64, ax.Points)
				step := (ax.Max - ax.Min) / float64(ax.Points-1)
				for j := range vals {
					vals[j] = ax.Min + float64(j)*step
				}
				vals[ax.Points-1] = ax.Max // exact endpoint despite rounding
			}
		}
		for _, v := range vals {
			if v <= 0 {
				// A zero value would be re-resolved by withDefaults at
				// submission and silently shift the grid point.
				return surface.Spec{}, Request{}, fmt.Errorf(
					"%w: axis %q values must be positive (got %g)", ErrBadRequest, ax.Name, v)
			}
		}
		axes[i] = surface.Axis{Name: ax.Name, Values: vals}
	}

	base := Request{
		Type: sw.Type, Scenario: sw.Scenario, Params: sw.Params,
		TimeoutSec: sw.TimeoutSec, Class: ClassBatch,
	}
	// Pin every axis field to its grid origin before canonicalization, so
	// the defaults resolver sees the swept values (e.g. a swept r0 keeps
	// lambda0 at zero) and the spec identity is deterministic.
	for i := range axes {
		axisParams[axes[i].Name].set(&base.Params, axes[i].Values[0])
	}
	rreq, sc, _, _, err := s.resolveRequest(base)
	if err != nil {
		return surface.Spec{}, Request{}, err
	}

	fields := sw.Fields
	if len(fields) == 0 {
		fields = defaultSurfaceFields[rreq.Type]
	}
	for _, f := range fields {
		if !surfaceFields[rreq.Type][f] {
			return surface.Spec{}, Request{}, fmt.Errorf(
				"%w: field %q is not a scalar output of %s jobs", ErrBadRequest, f, rreq.Type)
		}
	}

	blob, err := json.Marshal(rreq.Params)
	if err != nil {
		return surface.Spec{}, Request{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	spec := surface.Spec{
		JobType:     string(rreq.Type),
		Scenario:    rreq.Scenario,
		Fingerprint: sc.Fingerprint,
		Axes:        axes,
		Fields:      fields,
		Base:        blob,
	}
	if err := spec.Validate(); err != nil {
		return surface.Spec{}, Request{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return spec, rreq, nil
}

// BuildSurface resolves a sweep spec and ensures its surface exists:
// already-resident specs return their current state (idempotent by content
// key), persisted artifacts reload from the store, and anything else starts
// an asynchronous construction whose grid points run as batch jobs through
// the ordinary queue. Poll GET /v1/surfaces for completion.
func (s *Service) BuildSurface(sw SweepSpec) (SurfaceInfo, error) {
	spec, base, err := s.resolveSweep(sw)
	if err != nil {
		return SurfaceInfo{}, err
	}
	key, err := spec.Key()
	if err != nil {
		return SurfaceInfo{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}

	m := s.surf
	m.mu.Lock()
	if e, ok := m.entries[key]; ok && e.status != surfaceFailed {
		info := m.infoLocked(e)
		m.mu.Unlock()
		return info, nil
	}
	e, existed := m.entries[key], false
	if e != nil {
		existed = true // failed earlier; retry the build
		e.status = surfaceBuilding
		e.errMsg = ""
		e.pointsDone.Store(0)
	} else {
		e = &surfaceEntry{key: key, spec: spec, status: surfaceBuilding}
		if err := json.Unmarshal(spec.Base, &e.baseParams); err != nil {
			m.mu.Unlock()
			return SurfaceInfo{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
	}

	// An identical sweep persisted by an earlier process life decodes in
	// milliseconds instead of re-running the grid.
	if s.reader != nil {
		if blob, ok := s.reader.GetSurface(key); ok {
			if surf, derr := surface.Decode(blob); derr == nil {
				e.surf = surf
				e.size = len(blob)
				e.status = surfaceReady
				e.pointsDone.Store(int64(spec.Points()))
			} else {
				s.cfg.Logger.Warn("persisted surface undecodable; rebuilding",
					"key", key, "error", derr.Error())
			}
		}
	}
	if !existed {
		m.entries[key] = e
		m.order = append(m.order, key)
	}
	launch := e.status == surfaceBuilding
	info := m.infoLocked(e)
	m.mu.Unlock()

	if launch {
		s.met.surfaceBuilds.Inc()
		s.surfWG.Add(1)
		go s.buildSurface(e, base)
		s.cfg.Logger.Info("surface build started",
			"key", key, "type", spec.JobType, "scenario", spec.Scenario,
			"points", spec.Points(), "fields", strings.Join(spec.Fields, ","))
	} else {
		s.cfg.Logger.Info("surface reloaded from store", "key", key, "bytes", e.size)
	}
	return info, nil
}

// buildSurface runs the grid: every point submits as a batch job (cached
// results answer instantly, cluster workers may lease the rest), a bounded
// window keeps the queue fed without monopolizing it, and the collected
// scalars fold into the packed artifact, persist, and publish.
func (s *Service) buildSurface(e *surfaceEntry, base Request) {
	defer s.surfWG.Done()
	n := e.spec.Points()
	fields := make(map[string][]float64, len(e.spec.Fields))
	for _, f := range e.spec.Fields {
		fields[f] = make([]float64, n)
	}

	type pending struct {
		idx int
		r   *jobRecord
	}
	var inflight []pending

	// drainOne blocks until the oldest in-flight grid point is terminal
	// (a cache hit already is) and extracts its fields.
	drainOne := func() error {
		p := inflight[0]
		inflight = inflight[1:]
		select {
		case <-p.r.done:
		case <-s.baseCtx.Done():
			return fmt.Errorf("surface build aborted: %w", s.baseCtx.Err())
		}
		s.mu.Lock()
		job := p.r.snapshot()
		s.mu.Unlock()
		if job.Status != StatusSucceeded {
			return fmt.Errorf("grid point %d: %s: %s", p.idx, job.Status, job.Error)
		}
		for _, f := range e.spec.Fields {
			v, err := extractField(job.Result, f)
			if err != nil {
				return fmt.Errorf("grid point %d: %v", p.idx, err)
			}
			fields[f][p.idx] = v
		}
		e.pointsDone.Add(1)
		return nil
	}

	for i := 0; i < n; i++ {
		req := base
		coords := e.spec.Coords(i)
		for a, ax := range e.spec.Axes {
			axisParams[ax.Name].set(&req.Params, coords[a])
		}
		for {
			r, _, err := s.submit(s.baseCtx, req)
			if err == nil {
				inflight = append(inflight, pending{i, r})
				break
			}
			if errors.Is(err, ErrQueueFull) || errors.Is(err, ErrSaturated) {
				// Back off by finishing a point we already own; if none is
				// in flight, wait for the queue to move.
				if len(inflight) > 0 {
					if derr := drainOne(); derr != nil {
						s.surf.fail(e, derr)
						return
					}
					continue
				}
				select {
				case <-s.baseCtx.Done():
					s.surf.fail(e, fmt.Errorf("surface build aborted: %w", s.baseCtx.Err()))
					return
				case <-time.After(surfaceBackoff):
				}
				continue
			}
			s.surf.fail(e, fmt.Errorf("grid point %d: %w", i, err))
			return
		}
		if len(inflight) >= surfaceBuildWindow {
			if err := drainOne(); err != nil {
				s.surf.fail(e, err)
				return
			}
		}
	}
	for len(inflight) > 0 {
		if err := drainOne(); err != nil {
			s.surf.fail(e, err)
			return
		}
	}

	surf, err := surface.New(e.spec, fields)
	if err != nil {
		s.surf.fail(e, err)
		return
	}
	blob, err := surf.Encode()
	if err != nil {
		s.surf.fail(e, err)
		return
	}
	if s.store != nil {
		if perr := s.store.PutSurface(e.key, blob); perr != nil {
			// Serving continues from memory; only restart warm-up is lost.
			s.cfg.Logger.Warn("surface artifact not persisted",
				"key", e.key, "error", perr.Error())
		}
	}
	s.surf.install(e, surf, len(blob))
	s.cfg.Logger.Info("surface ready",
		"key", e.key, "points", n, "bytes", len(blob))
}

// reloadSurfaces loads every persisted artifact through the Reader seam at
// startup, so a restarted daemon serves its surfaces without re-running a
// single grid point. Called from New; no locking concerns.
func (s *Service) reloadSurfaces() {
	loaded := 0
	for _, key := range s.reader.SurfaceKeys() {
		blob, ok := s.reader.GetSurface(key)
		if !ok {
			continue // quarantined between listing and read
		}
		surf, err := surface.Decode(blob)
		if err != nil {
			s.cfg.Logger.Warn("persisted surface undecodable; skipped",
				"key", key, "error", err.Error())
			continue
		}
		e := &surfaceEntry{key: key, spec: surf.Spec, status: surfaceReady, surf: surf, size: len(blob)}
		if err := json.Unmarshal(surf.Spec.Base, &e.baseParams); err != nil {
			s.cfg.Logger.Warn("persisted surface has undecodable base params; skipped",
				"key", key, "error", err.Error())
			continue
		}
		e.pointsDone.Store(int64(surf.Spec.Points()))
		s.surf.mu.Lock()
		if _, dup := s.surf.entries[key]; !dup {
			s.surf.entries[key] = e
			s.surf.order = append(s.surf.order, key)
			loaded++
		}
		s.surf.mu.Unlock()
	}
	if loaded > 0 {
		s.cfg.Logger.Info("surfaces reloaded", "count", loaded)
	}
}

// Surfaces lists the resident surfaces, newest first.
func (s *Service) Surfaces() []SurfaceInfo { return s.surf.list() }

// Surface returns one surface's state by content key.
func (s *Service) Surface(key string) (SurfaceInfo, bool) { return s.surf.info(key) }

// Query answers an exact request from a covering response surface in
// microseconds — with the interpolation error bound in the envelope — or
// falls back to the exact path: an interactive job submission whose
// snapshot (terminal inline on a cache hit) rides back in the envelope.
func (s *Service) Query(q Query) (QueryResult, error) {
	if q.Tolerance < 0 {
		return QueryResult{}, fmt.Errorf("%w: tolerance %g must be non-negative", ErrBadRequest, q.Tolerance)
	}
	req := Request{
		Type: q.Type, Scenario: q.Scenario, Params: q.Params,
		TimeoutSec: q.TimeoutSec, Class: ClassInteractive,
	}
	rreq, sc, _, _, err := s.resolveRequest(req)
	if err != nil {
		return QueryResult{}, err
	}
	qblob, err := json.Marshal(rreq.Params)
	if err != nil {
		return QueryResult{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}

	outcome, reason := outcomeFallbackUncovered, "no covering surface"
	if hit := s.surf.lookup(rreq.Type, sc.Fingerprint, rreq.Params, qblob, q.Fields); hit != nil {
		if q.Tolerance == 0 || hit.maxBound <= q.Tolerance {
			s.met.surfaceQuery(outcomeHit)
			s.surf.hits.Add(1)
			return QueryResult{
				Source:     "surface",
				SurfaceKey: hit.key,
				Values:     hit.values,
				ErrorBound: hit.bounds,
			}, nil
		}
		outcome = outcomeFallbackTolerance
		reason = fmt.Sprintf("error bound %.3g exceeds tolerance %.3g", hit.maxBound, q.Tolerance)
	}
	s.met.surfaceQuery(outcome)
	s.surf.fallbacks.Add(1)
	job, err := s.Submit(rreq)
	if err != nil {
		return QueryResult{}, err
	}
	return QueryResult{Source: "job", Reason: reason, Job: &job}, nil
}

// extractField reads one scalar field from a result payload by its JSON
// name.
func extractField(raw json.RawMessage, field string) (float64, error) {
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		return 0, fmt.Errorf("undecodable result: %v", err)
	}
	v, ok := m[field]
	if !ok {
		return 0, fmt.Errorf("result has no field %q", field)
	}
	f, ok := v.(float64)
	if !ok {
		return 0, fmt.Errorf("result field %q is not a number", field)
	}
	return f, nil
}

// surfaceQuery counts one query outcome.
func (m *metrics) surfaceQuery(outcome string) {
	if c := m.surfaceQueries[outcome]; c != nil {
		c.Inc()
	}
}

// --- HTTP handlers -------------------------------------------------------

func (s *Service) handleBuildSurface(w http.ResponseWriter, r *http.Request) {
	var sw SweepSpec
	if err := decodeBody(r, &sw); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	info, err := s.BuildSurface(sw)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	code := http.StatusAccepted
	if info.Status == surfaceReady {
		code = http.StatusOK
	}
	writeJSON(w, code, info)
}

func (s *Service) handleSurfaceIndex(w http.ResponseWriter, r *http.Request) {
	list := s.Surfaces()
	writeJSON(w, http.StatusOK, map[string]any{"surfaces": list, "count": len(list)})
}

func (s *Service) handleQuery(w http.ResponseWriter, r *http.Request) {
	var q Query
	if err := decodeBody(r, &q); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.serveQuery(w, q)
}

func (s *Service) handleQueryGet(w http.ResponseWriter, r *http.Request) {
	q, err := queryFromURL(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.serveQuery(w, q)
}

func (s *Service) serveQuery(w http.ResponseWriter, q Query) {
	res, err := s.Query(q)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	code := http.StatusOK
	if res.Job != nil && !res.Job.Status.Terminal() {
		// The fallback job is asynchronous; point the caller at the poll URL.
		w.Header().Set("Location", "/v1/jobs/"+res.Job.ID)
		code = http.StatusAccepted
	}
	writeJSON(w, code, res)
}

// queryFromURL decodes GET /v1/query parameters: ?type=ode&r0=1.8&... with
// fields comma-separated. Only the sweepable float parameters (plus the ABM
// integer extras) are addressable this way; POST takes the full Params.
func queryFromURL(v url.Values) (Query, error) {
	var q Query
	q.Type = JobType(v.Get("type"))
	q.Scenario = v.Get("scenario")
	if f := v.Get("fields"); f != "" {
		q.Fields = strings.Split(f, ",")
	}
	for _, fld := range []struct {
		name string
		dst  *float64
	}{
		{"tolerance", &q.Tolerance},
		{"timeout_sec", &q.TimeoutSec},
	} {
		if raw := v.Get(fld.name); raw != "" {
			f, err := strconv.ParseFloat(raw, 64)
			if err != nil {
				return Query{}, fmt.Errorf("parameter %q: %v", fld.name, err)
			}
			*fld.dst = f
		}
	}
	for name, acc := range axisParams {
		if raw := v.Get(name); raw != "" {
			f, err := strconv.ParseFloat(raw, 64)
			if err != nil {
				return Query{}, fmt.Errorf("parameter %q: %v", name, err)
			}
			acc.set(&q.Params, f)
		}
	}
	for _, fld := range []struct {
		name string
		dst  *int
	}{
		{"trials", &q.Params.Trials},
		{"nodes", &q.Params.Nodes},
	} {
		if raw := v.Get(fld.name); raw != "" {
			n, err := strconv.Atoi(raw)
			if err != nil {
				return Query{}, fmt.Errorf("parameter %q: %v", fld.name, err)
			}
			*fld.dst = n
		}
	}
	if raw := v.Get("seed"); raw != "" {
		n, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			return Query{}, fmt.Errorf("parameter %q: %v", "seed", err)
		}
		q.Params.Seed = n
	}
	return q, nil
}
