// Package service implements rumord's simulation-as-a-service layer: a
// scenario registry, a bounded asynchronous job queue executing on a fixed
// worker pool, a content-addressed LRU result cache, per-job timeouts with
// context cancellation threaded into the solvers (internal/core,
// internal/control, internal/abm), and operational introspection
// (health/readiness/stats). See DESIGN.md §7.
//
// The package is HTTP-agnostic at its core — Submit/Job/Cancel/Drain are
// plain methods — with the JSON API bolted on in handlers.go, so the same
// engine can back other transports later.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rumornet/internal/cluster"
	"rumornet/internal/degreedist"
	"rumornet/internal/digg"
	"rumornet/internal/obs"
	"rumornet/internal/obs/invariant"
	"rumornet/internal/obs/journal"
	"rumornet/internal/obs/trace"
	"rumornet/internal/par"
	"rumornet/internal/store"
)

// Sentinel errors mapped to HTTP statuses by handlers.go.
var (
	// ErrBadRequest marks malformed or out-of-range client input (400).
	ErrBadRequest = errors.New("bad request")
	// ErrNotFound marks an unknown job or scenario id (404).
	ErrNotFound = errors.New("not found")
	// ErrQueueFull is returned when the bounded queue rejects a
	// submission (503): back off and retry.
	ErrQueueFull = errors.New("job queue full")
	// ErrSaturated is returned for batch submissions while the queue-wait
	// saturation detector reports saturated (503): under overload the
	// service sheds throughput work first so interactive latency recovers.
	ErrSaturated = errors.New("saturated: batch admission suspended")
	// ErrDraining is returned for submissions after drain began (503).
	ErrDraining = errors.New("service draining")
	// errDuplicate marks a scenario-name collision (409).
	errDuplicate = errors.New("duplicate")
)

func defaultWorkers() int { return par.Default(0) }

// jobRecord is the service-internal state of a job; every field is guarded
// by Service.mu except the immutable req/sc/key/timeout set at submission.
type jobRecord struct {
	job     Job
	req     Request
	sc      *Scenario
	key     string
	seq     uint64
	timeout time.Duration

	cancel        context.CancelFunc // non-nil while running locally; nil for leased jobs
	userCancelled atomic.Bool        // set once by Cancel; read by begin, runJob and the lease paths
	// done closes when finish makes the job terminal.
	done chan struct{}

	// attempts counts cluster lease grants (0 for standalone execution);
	// the reaper terminally fails the job once it reaches
	// Cluster.MaxAttempts. Recovery restores it from the WAL.
	attempts int

	// prog is the latest solver checkpoint, written by the executing
	// worker's progress sink and read by snapshots without taking
	// Service.mu: stored values are immutable once published.
	prog atomic.Pointer[JobProgress]

	// span is the job's trace span, opened at submission (as a child of
	// the submitting HTTP request when one carried a traceparent) and
	// ended when the job reaches a terminal status.
	span *trace.Span
	// monitor evaluates the numerical invariants against this job's
	// progress stream; violations land in the journal, the metrics and
	// the log exactly once per check.
	monitor *invariant.Monitor
	// lg is the job-scoped logger begin built for this execution.
	lg *slog.Logger
	// sink is the progress sink begin wired for this execution: local
	// solver events and relayed remote events both flow through it.
	sink obs.Progress

	// spanMu guards the per-stage child spans; progress events arrive
	// from concurrent ABM trial goroutines.
	spanMu     sync.Mutex
	stageSpans map[string]*trace.Span
}

// Service is the resident simulation engine behind cmd/rumord.
type Service struct {
	cfg       Config
	scenarios *registry
	cache     *resultCache
	met       *metrics
	tracer    *trace.Tracer
	journal   *journal.Journal
	// store is the durable WAL + result store (nil without Config.StoreDir).
	// Set once in New before the workers start, never mutated after.
	store *store.Store
	// reader is the read-only persistence seam the serving paths use
	// (cache-miss disk reads, surface artifacts): Config.StoreReader when
	// injected, else the store itself, else nil. Set once in New.
	reader store.Reader
	// surf is the response-surface registry (surface.go); always non-nil.
	surf *surfaceManager
	// surfWG tracks surface-construction goroutines; Close waits for them
	// after the workers exit so no build touches a closed store.
	surfWG sync.WaitGroup
	// sat is the queue-wait saturation detector (latency.go); nil when
	// Config.SaturationBudget disabled it. Set once in New.
	sat *satWindow
	// table is the cluster lease table + worker registry (nil unless
	// Config.Cluster.Enabled). Set once in New, never mutated after. Lock
	// order: Service.mu before table's internal mutex, and the table never
	// calls back into the service.
	table *cluster.Table

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup
	// reaperWG tracks the lease reaper separately from the worker pool:
	// Drain waits on wg only (the reaper must keep running while remote
	// workers drain their leases); Close waits on both.
	reaperWG sync.WaitGroup

	mu      sync.Mutex
	jobs    map[string]*jobRecord
	order   []string            // submission order, for bounded retention
	keyJobs map[string][]string // cache key -> jobs whose journal it retains
	seq     uint64
	// queues is one bounded channel per admission class, indexed by
	// classIndex (0 = interactive, 1 = batch). Workers and cluster leases
	// drain interactive first — a queued batch sweep never delays a queued
	// interactive job by more than the job already executing.
	queues   [2]chan *jobRecord
	draining bool

	reqSeq atomic.Uint64 // request-id generator for the HTTP middleware

	// telMu guards the per-worker registry snapshots relayed on heartbeats
	// and result uploads; /metrics re-exports them as rumor_worker_* series
	// and rumor_fleet_* aggregates. Separate from mu: a scrape must not
	// contend with the job table.
	telMu       sync.Mutex
	workerSnaps map[string]obs.Snapshot
}

// New builds a Service, registers the built-in Digg2009 scenario, and
// starts the worker pool. Call Drain (graceful) or Close (immediate) to
// shut it down.
func New(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &Service{
		cfg:       cfg,
		scenarios: newRegistry(),
		cache:     newResultCache(cfg.CacheEntries),
		met:       newMetrics(),
		tracer:    trace.New(cfg.TraceSpans),
		journal:   journal.New(cfg.JournalEntries, cfg.JournalSink),
		jobs:      make(map[string]*jobRecord),
		keyJobs:   make(map[string][]string),
		queues: [2]chan *jobRecord{
			make(chan *jobRecord, cfg.QueueDepth),
			make(chan *jobRecord, cfg.QueueDepth),
		},
		surf: newSurfaceManager(),
	}
	if cfg.Cluster.Enabled {
		s.table = cluster.New(cfg.Cluster.LeaseTTL, cfg.Cluster.WorkerLiveness, nil)
	}
	if cfg.SaturationBudget > 0 {
		s.sat = newSatWindow(cfg.SaturationBudget, cfg.SaturationWindow)
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())

	// The store opens before registerDerived (its gauges close over s.store)
	// and before the workers start (recovery re-enqueues ahead of any
	// live submission).
	if cfg.StoreDir != "" {
		opts := cfg.StoreOptions
		if opts.Logger == nil {
			opts.Logger = cfg.Logger
		}
		opts.Hooks = store.Hooks{
			OnAppend: func(d time.Duration) { s.met.walAppend.Observe(d.Seconds()) },
			OnFsync:  func(d time.Duration) { s.met.walFsync.Observe(d.Seconds()) },
		}
		st, err := store.Open(cfg.StoreDir, opts)
		if err != nil {
			return nil, fmt.Errorf("service: open store: %w", err)
		}
		s.store = st
	}
	// The serving paths read through the seam: an injected Reader wins (a
	// shared or remote tier, or a test double), else the local store backs
	// it, else reads are simply skipped.
	s.reader = cfg.StoreReader
	if s.reader == nil && s.store != nil {
		s.reader = s.store
	}
	fail := func(err error) (*Service, error) {
		if s.store != nil {
			s.store.Close()
		}
		return nil, err
	}
	s.met.registerDerived(s)

	// The built-in scenario is the expensive one (a 71k-user synthetic
	// network); building it once here is exactly the amortization the
	// one-shot CLIs cannot offer.
	dist, err := digg.Dist(rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return fail(fmt.Errorf("service: built-in scenario: %w", err))
	}
	if _, err := s.scenarios.register(BuiltinScenario, "builtin", dist); err != nil {
		return fail(err)
	}
	if s.store != nil {
		s.recoverFromStore()
	}
	if s.reader != nil {
		s.reloadSurfaces()
	}

	if s.table != nil {
		// Coordinator mode: no local workers, remote nodes lease the queue;
		// the reaper recycles leases their owners stopped renewing.
		s.reaperWG.Add(1)
		go s.reaper(cfg.Cluster.ReapInterval)
	} else {
		for i := 0; i < cfg.Workers; i++ {
			s.wg.Add(1)
			go s.worker()
		}
	}
	cfg.Logger.Info("service started",
		"workers", cfg.Workers, "cluster", cfg.Cluster.Enabled,
		"inner_workers", cfg.InnerWorkers,
		"queue_depth", cfg.QueueDepth, "cache_entries", cfg.CacheEntries,
		"store_dir", cfg.StoreDir)
	return s, nil
}

// newRecord builds a queued job's record and opens its span — a child of
// parent when the submission carried a trace context.
func (s *Service) newRecord(id string, seq uint64, req Request, sc *Scenario, key string,
	timeout time.Duration, submitted time.Time, parent trace.SpanContext) *jobRecord {
	span := s.tracer.StartSpan("job."+string(req.Type), parent,
		obs.L("scenario", req.Scenario), obs.L("job_id", id))
	return &jobRecord{
		job: Job{
			ID:          id,
			Type:        req.Type,
			Scenario:    req.Scenario,
			Status:      StatusQueued,
			Class:       req.Class,
			TraceID:     span.Context().TraceID.String(),
			SubmittedAt: submitted,
		},
		req:     req,
		sc:      sc,
		key:     key,
		seq:     seq,
		timeout: timeout,
		span:    span,
		done:    make(chan struct{}),
	}
}

// snapshot copies the API view of a record, attaching the latest progress
// checkpoint. Callers hold s.mu for the job copy; the progress pointer is
// read atomically and its target is immutable.
func (r *jobRecord) snapshot() Job {
	job := r.job
	if p := r.prog.Load(); p != nil {
		job.Progress = p
	}
	return job
}

// RegisterScenario adds an uploaded degree table under the given name and,
// when a durable store is configured, persists the table in the WAL — so a
// coordinator restart re-registers it and recovered jobs that reference it
// no longer fail with "unknown scenario".
func (s *Service) RegisterScenario(name string, degrees []int, probs []float64) (*Scenario, error) {
	d, err := degreedist.New(degrees, probs)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	sc, err := s.scenarios.register(name, "uploaded", d)
	if err != nil {
		return nil, err
	}
	s.wal("scenario", name, func(st *store.Store) error {
		return st.AppendScenario(store.ScenarioState{Name: name, Source: "uploaded", Degrees: degrees, Probs: probs})
	})
	return sc, nil
}

// Scenario returns a registered scenario by name.
func (s *Service) Scenario(name string) (*Scenario, error) {
	sc, ok := s.scenarios.get(name)
	if !ok {
		return nil, fmt.Errorf("%w: scenario %q", ErrNotFound, name)
	}
	return sc, nil
}

// Scenarios lists registered scenarios sorted by name.
func (s *Service) Scenarios() []*Scenario { return s.scenarios.list() }

// Submit validates and enqueues a job, returning its initial snapshot. A
// result-cache hit completes the job synchronously (Status ==
// StatusSucceeded, CacheHit == true) without consuming a queue slot.
func (s *Service) Submit(req Request) (Job, error) {
	return s.SubmitCtx(context.Background(), req)
}

// SubmitCtx is Submit with trace propagation: when ctx carries a span
// context (the HTTP middleware puts the request span there, itself a child
// of the client's traceparent when one was sent), the job's span — and so
// every journal entry and log line the job emits — joins that trace.
func (s *Service) SubmitCtx(ctx context.Context, req Request) (Job, error) {
	_, job, err := s.submit(ctx, req)
	return job, err
}

// submit is SubmitCtx returning the job's record too, so in-process callers
// (surface builds) can wait on its done channel.
func (s *Service) submit(ctx context.Context, req Request) (*jobRecord, Job, error) {
	req, sc, key, timeout, err := s.resolveRequest(req)
	if err != nil {
		return nil, Job{}, err
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.met.rejected.Inc()
		s.cfg.Logger.Warn("job rejected", "reason", "draining", "type", req.Type)
		return nil, Job{}, ErrDraining
	}
	s.seq++
	r := s.newRecord(fmt.Sprintf("j-%06d", s.seq), s.seq, req, sc, key, timeout,
		time.Now(), trace.SpanContextFromContext(ctx))

	raw, hit := s.cache.get(key)
	source := hitMemory
	// Memory miss: a result persisted by an earlier process life (or
	// evicted by the LRU bound since) may still be on disk. The read goes
	// through the Reader seam and also repopulates the memory cache, so one
	// submission pays the I/O.
	if !hit && s.reader != nil {
		if blob, ok := s.reader.GetResult(key); ok {
			raw, hit, source = json.RawMessage(blob), true, hitDisk
			if evicted := s.cache.put(key, raw); len(evicted) > 0 {
				s.met.cacheEvictions.Add(int64(len(evicted)))
				s.trimEvictedLocked(evicted)
			}
		}
	}
	if hit {
		// A hit completes synchronously: no queue slot, no execution.
		s.insertLocked(r)
		s.mu.Unlock()
		s.met.submitted.Inc()
		s.met.cacheHits.Inc()
		if source == hitDisk {
			s.met.diskHits.Inc()
		}
		s.journal.Append(journal.Entry{
			JobID: r.job.ID, TraceID: r.job.TraceID,
			Kind: journal.KindLifecycle, Msg: "submitted",
		})
		return r, s.finish(r, outcome{status: StatusSucceeded, raw: raw, cacheHit: source,
			logMsg: "job served from cache"}), nil
	}
	defer s.mu.Unlock()

	// Saturation sheds batch work first: an overloaded queue recovers by
	// refusing sweeps, not interactive submissions. Checked after the cache
	// — a hit costs no queue slot, so shedding it would only waste work.
	if req.Class == ClassBatch && s.sat != nil && s.sat.Saturated() {
		r.span.End()
		s.met.rejected.Inc()
		s.met.shed.Inc()
		s.cfg.Logger.Warn("job rejected", "reason", "saturated", "class", req.Class, "type", req.Type)
		return nil, Job{}, ErrSaturated
	}

	select {
	case s.queues[classIndex(req.Class)] <- r:
		s.met.submitted.Inc()
		s.met.cacheMisses.Inc()
		s.insertLocked(r)
		s.wal("submitted", r.job.ID, func(st *store.Store) error {
			blob, err := json.Marshal(r.req)
			if err != nil {
				return err
			}
			return st.AppendSubmitted(store.JobState{
				ID: r.job.ID, Seq: r.seq, Request: blob, Key: r.key,
				TraceID: r.job.TraceID, SubmittedAt: r.job.SubmittedAt,
				Class: string(r.req.Class),
			})
		})
		s.journal.Append(journal.Entry{
			JobID: r.job.ID, TraceID: r.job.TraceID,
			Kind: journal.KindLifecycle, Msg: "queued",
		})
		s.cfg.Logger.Info("job queued",
			"job_id", r.job.ID, "type", r.job.Type, "scenario", r.job.Scenario,
			"class", r.req.Class, "timeout", timeout.String(), "trace_id", r.job.TraceID)
		return r, r.job, nil
	default:
		r.span.End()
		s.met.rejected.Inc()
		s.cfg.Logger.Warn("job rejected", "reason", "queue full", "type", req.Type)
		return nil, Job{}, ErrQueueFull
	}
}

// resolveRequest validates a request, resolves its scenario, canonicalizes
// the parameters, and derives the timeout and cache key. Shared by
// SubmitCtx and startup recovery so a recovered request passes exactly the
// submission-time checks.
func (s *Service) resolveRequest(req Request) (Request, *Scenario, string, time.Duration, error) {
	if !validJobType(req.Type) {
		return req, nil, "", 0, fmt.Errorf("%w: unknown job type %q (want ode, threshold, abm or fbsm)", ErrBadRequest, req.Type)
	}
	if req.Scenario == "" {
		req.Scenario = BuiltinScenario
	}
	sc, ok := s.scenarios.get(req.Scenario)
	if !ok {
		return req, nil, "", 0, fmt.Errorf("%w: unknown scenario %q", ErrBadRequest, req.Scenario)
	}
	if !validClass(req.Class) {
		return req, nil, "", 0, fmt.Errorf("%w: unknown class %q (want interactive or batch)", ErrBadRequest, req.Class)
	}
	req.Class = req.Class.withDefault()
	req.Params = req.Params.withDefaults(req.Type)
	if err := req.Params.validate(req.Type); err != nil {
		return req, nil, "", 0, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if req.TimeoutSec < 0 {
		return req, nil, "", 0, fmt.Errorf("%w: timeout_sec = %g must be non-negative", ErrBadRequest, req.TimeoutSec)
	}
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutSec > 0 {
		timeout = time.Duration(req.TimeoutSec * float64(time.Second))
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	key := cacheKey(req.Type, sc.Fingerprint, req.Params)
	return req, sc, key, timeout, nil
}

// insertLocked records the job and evicts the oldest finished jobs beyond
// the retention bound, releasing the evicted jobs' journal entries with
// them. Callers hold s.mu.
func (s *Service) insertLocked(r *jobRecord) {
	s.jobs[r.job.ID] = r
	s.order = append(s.order, r.job.ID)
	for len(s.jobs) > s.cfg.MaxJobs {
		evicted := false
		for i, id := range s.order {
			if rec, ok := s.jobs[id]; ok && rec.job.Status.Terminal() {
				delete(s.jobs, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				s.journal.Remove(id)
				s.dropKeyJobLocked(rec.key, id)
				evicted = true
				break
			}
		}
		if !evicted {
			break // everything live; let the map exceed the soft bound
		}
	}
}

// dropKeyJobLocked removes one job from the cache-key back-reference list.
// Callers hold s.mu.
func (s *Service) dropKeyJobLocked(key, id string) {
	ids := s.keyJobs[key]
	for i, jid := range ids {
		if jid == id {
			ids = append(ids[:i], ids[i+1:]...)
			break
		}
	}
	if len(ids) == 0 {
		delete(s.keyJobs, key)
	} else {
		s.keyJobs[key] = ids
	}
}

// trimEvicted releases the journal entries of every job whose cached
// result was just evicted — the hardening contract: once a result is no
// longer resident, neither is its event history. Callers hold s.mu.
func (s *Service) trimEvictedLocked(keys []string) {
	for _, k := range keys {
		for _, id := range s.keyJobs[k] {
			s.journal.Remove(id)
		}
		delete(s.keyJobs, k)
	}
}

// Job returns a snapshot of the job with the given id.
func (s *Service) Job(id string) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.jobs[id]
	if !ok {
		return Job{}, false
	}
	return r.snapshot(), true
}

// Jobs returns snapshots of all retained jobs in submission order.
func (s *Service) Jobs() []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Job, 0, len(s.jobs))
	for _, id := range s.order {
		if r, ok := s.jobs[id]; ok {
			out = append(out, r.snapshot())
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// JobIndex returns up to limit retained jobs, newest submission first,
// optionally filtered by status (""), plus the total number of retained
// jobs matching the filter — the bounded GET /v1/jobs view: a daemon that
// has retained thousands of jobs answers in one small page.
func (s *Service) JobIndex(limit int, status Status) ([]Job, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := limit
	if n > len(s.order) {
		n = len(s.order)
	}
	out := make([]Job, 0, n)
	total := 0
	for i := len(s.order) - 1; i >= 0; i-- {
		r, ok := s.jobs[s.order[i]]
		if !ok || (status != "" && r.job.Status != status) {
			continue
		}
		total++
		if len(out) < limit {
			out = append(out, r.snapshot())
		}
	}
	return out, total
}

// Cancel stops a job: queued jobs finish immediately as cancelled, running
// jobs have their context cancelled and settle asynchronously. Cancelling
// a finished job is a no-op returning its final snapshot.
func (s *Service) Cancel(id string) (Job, error) {
	s.mu.Lock()
	r, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return Job{}, fmt.Errorf("%w: job %q", ErrNotFound, id)
	}
	switch {
	case r.job.Status == StatusQueued && !r.userCancelled.Swap(true):
		// The flag keeps begin from starting the job, so finishing it
		// outside s.mu cannot race an execution.
		s.mu.Unlock()
		return s.finish(r, outcome{status: StatusCancelled, err: "cancelled before start",
			logMsg: "job cancelled while queued"}), nil
	case r.job.Status == StatusRunning:
		r.userCancelled.Store(true)
		cancel := r.cancel
		job := r.snapshot()
		s.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		if s.table != nil {
			// Leased jobs have no local cancel func; the flag rides back on
			// the next heartbeat ack and the worker stops the job there.
			s.table.RequestCancel(id)
		}
		s.cfg.Logger.Info("job cancellation requested", "job_id", id)
		return job, nil
	default:
		job := r.snapshot()
		s.mu.Unlock()
		return job, nil
	}
}

// Stats returns a consistent snapshot of the operational counters.
func (s *Service) Stats() Stats {
	st := Stats{
		QueueCapacity: s.cfg.QueueDepth,
		Workers:       s.cfg.Workers,
	}
	s.mu.Lock()
	st.QueueInteractive = len(s.queues[0])
	st.QueueBatch = len(s.queues[1])
	st.QueueDepth = st.QueueInteractive + st.QueueBatch
	st.Draining = s.draining
	s.mu.Unlock()
	st.Cache.Entries = s.cache.len()
	st.Cache.Capacity = s.cfg.CacheEntries
	s.met.snapshot(&st)
	if s.store != nil {
		st.Store = &StoreStats{
			Stats:            s.store.Snapshot(),
			RecoveredJobs:    s.met.recoveredJobs.Value(),
			RecoveredResults: s.met.recoveredResults.Value(),
			ResultHits:       s.met.diskHits.Value(),
			WALErrors:        s.met.walErrors.Value(),
			ScenarioReplays:  s.met.scenarioReplays.Value(),
		}
	}
	if s.table != nil {
		st.Cluster = &ClusterStats{
			Workers:          s.table.LiveWorkers(),
			LeasesActive:     s.table.Active(),
			LeaseExpirations: s.met.leaseExpirations.Value(),
			Requeues:         s.met.requeues.Value(),
		}
	}
	st.Surface = s.surf.stats()
	return st
}

// queueLen is the total buffered depth across both admission classes.
func (s *Service) queueLen() int { return len(s.queues[0]) + len(s.queues[1]) }

// Ready reports whether the service accepts new submissions.
func (s *Service) Ready() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.draining
}

// Drain stops accepting submissions, lets queued and running jobs finish,
// and returns once the workers exit (or ctx expires, in which case the
// remaining jobs keep running and Close should follow). On a coordinator
// "running" means leased: drain additionally waits for remote workers to
// drain the buffered queue and upload their in-flight results.
func (s *Service) Drain(ctx context.Context) error {
	s.cfg.Logger.Info("drain started")
	s.stopIntake()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		if s.table != nil {
			// Closing the queue did not stop remote leasing: a buffered
			// receive on a closed channel still yields the remaining jobs,
			// so workers keep claiming until the buffer is dry, and
			// in-flight uploads keep landing. Poll both down to zero.
			for s.queueLen() > 0 || s.table.Active() > 0 {
				select {
				case <-ctx.Done():
					return // leave done open; the outer select reports the interrupt
				case <-time.After(20 * time.Millisecond):
				}
			}
		}
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: drain interrupted: %w", ctx.Err())
	}
}

// Close shuts down immediately: intake stops, running jobs are cancelled,
// and Close blocks until the workers exit. Shutdown-cancelled jobs get no
// terminal WAL record on purpose: a restart over the same data directory
// re-enqueues them (see recoverFromStore). The store closes last so every
// worker's appends land.
func (s *Service) Close() {
	s.stopIntake()
	s.baseCancel()
	s.wg.Wait()
	s.reaperWG.Wait() // the reaper appends to the WAL; stop it before the store closes
	s.surfWG.Wait()   // surface builds persist artifacts; stop them before the store closes
	if s.store != nil {
		if err := s.store.Close(); err != nil {
			s.cfg.Logger.Warn("store close failed", "error", err.Error())
		}
	}
}

func (s *Service) stopIntake() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.draining {
		s.draining = true
		close(s.queues[0]) // workers drain the buffered jobs then exit
		close(s.queues[1])
	}
}

func (s *Service) worker() {
	defer s.wg.Done()
	for {
		r, ok := s.dequeue()
		if !ok {
			return
		}
		s.runJob(r)
	}
}

// dequeue claims the next job for a local worker, interactive first: a
// nonblocking pass over the interactive queue precedes every blocking wait,
// so buffered interactive work always overtakes buffered batch work. It
// returns ok == false once both queues are closed and dry.
func (s *Service) dequeue() (*jobRecord, bool) {
	inter, batch := s.queues[0], s.queues[1]
	for inter != nil || batch != nil {
		if inter != nil {
			select {
			case r, ok := <-inter:
				if !ok {
					inter = nil
					continue
				}
				return r, true
			default:
			}
		}
		// Nothing interactive buffered: block on both (a nil channel never
		// fires, which is how a closed-and-dry class drops out).
		select {
		case r, ok := <-inter:
			if !ok {
				inter = nil
				continue
			}
			return r, true
		case r, ok := <-batch:
			if !ok {
				batch = nil
				continue
			}
			return r, true
		}
	}
	return nil, false
}

// tryDequeue claims the next buffered job without blocking, interactive
// first — the cluster lease path (LeaseNext returns "empty" rather than
// parking the worker's poll).
func (s *Service) tryDequeue() *jobRecord {
	for _, q := range s.queues {
		select {
		case r, ok := <-q:
			if ok {
				return r
			}
			// closed and dry: fall through to the other class
		default:
		}
	}
	return nil
}

// runJob executes one dequeued job under its timeout and hands the outcome
// to finish.
func (s *Service) runJob(r *jobRecord) {
	ctx, cancel := context.WithTimeout(s.baseCtx, r.timeout)
	defer cancel()
	start, ok := s.begin(r, "", cancel)
	if !ok { // cancelled while queued
		return
	}
	r.lg.Info("job started", "queue_wait_ms", durMS(start.Sub(r.job.SubmittedAt)))
	// The job-scoped logger rides in ctx so solver-adjacent code can
	// correlate its records with this job and its trace.
	ctx = obs.ContextWithLogger(withInnerWorkers(ctx, s.cfg.InnerWorkers), r.lg)

	payload, err := execute(ctx, r.sc, r.req, r.sink)
	o := outcome{execDone: time.Now(), logMsg: "job finished"} // the rest is the serialize segment
	if err == nil {
		o.raw, err = json.Marshal(payload)
	}
	switch {
	case err == nil:
		o.status = StatusSucceeded
	case r.userCancelled.Load():
		o.status, o.err = StatusCancelled, fmt.Sprintf("cancelled by client: %v", err)
	case errors.Is(err, context.DeadlineExceeded):
		o.status, o.err = StatusFailed, fmt.Sprintf("timed out after %s: %v", r.timeout, err)
	case errors.Is(err, context.Canceled):
		// The crash / redeploy case: the restarted daemon must re-enqueue it.
		o.status, o.err, o.shutdown = StatusCancelled, fmt.Sprintf("cancelled by shutdown: %v", err), true
	default:
		o.status, o.err = StatusFailed, err.Error()
	}
	s.finish(r, o)
}

// stageSpan opens the per-stage child span the first time a stage reports;
// FBSM's repeated forward/backward sweeps share one span per stage. Safe
// for concurrent progress emitters.
func (r *jobRecord) stageSpan(tr *trace.Tracer, stage string) {
	r.spanMu.Lock()
	defer r.spanMu.Unlock()
	if r.stageSpans == nil {
		r.stageSpans = make(map[string]*trace.Span)
	}
	if _, ok := r.stageSpans[stage]; !ok {
		r.stageSpans[stage] = tr.StartSpan("stage."+stage, r.span.Context())
	}
}

// endSpans closes the stage spans and then the job span.
func (r *jobRecord) endSpans(status Status) {
	r.spanMu.Lock()
	for _, sp := range r.stageSpans {
		sp.End()
	}
	r.stageSpans = nil
	r.spanMu.Unlock()
	r.span.SetAttr("status", string(status))
	r.span.End()
}

// progressSink adapts solver progress events onto the job record (for
// GET /v1/jobs/{id}), the flight-recorder journal (replayed and streamed by
// GET /v1/jobs/{id}/events), the invariant monitor, the per-stage trace
// spans, the metrics registry, and — every ProgressLogEvery-th event — the
// structured log. Solvers may call it from worker goroutines; everything it
// touches is atomic or internally locked.
func (s *Service) progressSink(r *jobRecord, monitor *invariant.Monitor, lg *slog.Logger) obs.Progress {
	var n atomic.Int64
	every := int64(s.cfg.ProgressLogEvery)
	return func(ev obs.Event) {
		jp := &JobProgress{
			Stage:     ev.Stage,
			Step:      ev.Step,
			Total:     ev.Total,
			T:         ev.T,
			Value:     ev.Value,
			Cost:      ev.Cost,
			UpdatedAt: time.Now(),
		}
		r.prog.Store(jp)
		// Standalone mode opens coordinator-local stage spans; in cluster
		// mode the executing worker times its own stage spans and uploads
		// them with the heartbeat/result relay, so opening a second set
		// here would double every stage in the trace.
		if s.table == nil {
			r.stageSpan(s.tracer, ev.Stage)
		}
		// Monitor first: a violation's journal entry then precedes the
		// checkpoint that triggered it in the replay, reading causally.
		monitor.Observe(ev)
		s.journal.Append(journal.Entry{
			JobID: r.job.ID, TraceID: r.job.TraceID,
			Kind: journal.KindProgress, Stage: ev.Stage,
			Step: ev.Step, Total: ev.Total, T: ev.T, Value: ev.Value,
			Cost: ev.Cost,
		})
		if ev.Stage == obs.StageABM && ev.Elapsed > 0 {
			s.met.abmStep.Observe(ev.Elapsed.Seconds())
		}
		if every > 0 && n.Add(1)%every == 0 {
			lg.Debug("job progress", "stage", ev.Stage, "step", ev.Step,
				"total", ev.Total, "t", ev.T, "value", ev.Value, "cost", ev.Cost)
		}
	}
}
