package service

import (
	"strconv"
	"time"

	"rumornet/internal/obs"
	"rumornet/internal/obs/invariant"
	"rumornet/internal/par"
	"rumornet/internal/store"
)

// Stats is the /v1/stats payload: a consistent snapshot of the service's
// operational counters.
type Stats struct {
	QueueDepth int `json:"queue_depth"`
	// QueueInteractive/QueueBatch split the depth by admission class (each
	// class has its own QueueCapacity-bounded buffer).
	QueueInteractive int  `json:"queue_interactive"`
	QueueBatch       int  `json:"queue_batch"`
	QueueCapacity    int  `json:"queue_capacity"`
	Workers          int  `json:"workers"`
	Draining         bool `json:"draining"`

	Jobs struct {
		Submitted int64 `json:"submitted"`
		Completed int64 `json:"completed"`
		Failed    int64 `json:"failed"`
		Cancelled int64 `json:"cancelled"`
		Rejected  int64 `json:"rejected"` // queue-full or draining refusals
		// Shed counts batch submissions refused while the saturation
		// detector reported saturated (a subset of Rejected).
		Shed int64 `json:"shed"`
	} `json:"jobs"`

	Cache struct {
		Hits     int64   `json:"hits"`
		Misses   int64   `json:"misses"`
		Entries  int     `json:"entries"`
		Capacity int     `json:"capacity"`
		HitRate  float64 `json:"hit_rate"`
	} `json:"cache"`

	// LatencyMS aggregates execution latency per job type (cache hits
	// excluded: they never execute).
	LatencyMS map[string]LatencySummary `json:"latency_ms"`

	// Store reports the durable job store when the daemon runs with
	// -data-dir; omitted for a fully in-memory service.
	Store *StoreStats `json:"store,omitempty"`

	// Cluster reports the lease table and worker registry on a coordinator;
	// omitted in standalone mode.
	Cluster *ClusterStats `json:"cluster,omitempty"`

	// Surface reports the response-surface serving tier (surface.go):
	// surfaces loaded, resident bytes, query hit/fallback split. Omitted
	// until the first surface or query touches the tier.
	Surface *SurfaceStats `json:"surface,omitempty"`
}

// StoreStats extends the store's own snapshot with the service-level
// recovery and disk-hit counters.
type StoreStats struct {
	store.Stats
	// RecoveredJobs counts unfinished jobs re-enqueued by startup recovery;
	// RecoveredResults the results warmed into the memory cache.
	RecoveredJobs    int64 `json:"recovered_jobs"`
	RecoveredResults int64 `json:"recovered_results"`
	// ResultHits counts submissions answered from the on-disk result store
	// after a memory-cache miss; WALErrors failed store operations.
	ResultHits int64 `json:"result_hits"`
	WALErrors  int64 `json:"wal_errors"`
	// ScenarioReplays counts uploaded scenario tables re-registered from
	// the WAL by startup recovery.
	ScenarioReplays int64 `json:"scenario_replays"`
}

// LatencySummary aggregates per-job-type execution latency.
type LatencySummary struct {
	Count int64   `json:"count"`
	Total float64 `json:"total"`
	Mean  float64 `json:"mean"`
	Max   float64 `json:"max"`
}

// jobDurationBuckets span rumord's execution latencies: sub-millisecond
// threshold analyses up to the 10-minute timeout cap.
var jobDurationBuckets = []float64{
	0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300, 600,
}

// queueWaitBuckets span the queue dwell time: instant hand-off on an idle
// pool up to minutes behind a saturated one.
var queueWaitBuckets = []float64{
	0.0001, 0.001, 0.01, 0.05, 0.1, 0.5, 1, 5, 15, 60, 300,
}

// metrics is the service's instrumentation: every instrument lives in an
// obs.Registry (scraped at GET /metrics) and doubles as the backing store
// for the legacy /v1/stats payload, which snapshots the same atomics. The
// per-type and per-status maps are built once here and read-only afterwards,
// so the hot paths (submit, runJob) touch only lock-free instruments —
// replacing the former whole-struct mutex.
type metrics struct {
	reg *obs.Registry

	submitted *obs.Counter
	rejected  *obs.Counter
	outcomes  map[Status]*obs.Counter

	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	cacheEvictions *obs.Counter

	latency   map[JobType]*obs.Histogram // execution latency per job type
	queueWait *obs.Histogram
	// queueWaitClass decomposes the queue dwell time by admission class —
	// the starvation dashboard: interactive dwell must stay flat while the
	// batch series absorbs the sweep backlog.
	queueWaitClass map[Class]*obs.Histogram
	// shed counts batch submissions refused under saturation (a subset of
	// rejected).
	shed *obs.Counter
	// segments decomposes end-to-end job latency (latency.go).
	segments map[string]*obs.Histogram
	abmStep  *obs.Histogram // per-sweep wall time from StageABM events
	running  *obs.Gauge     // jobs currently executing (busy workers)

	// httpRequests is rumor_http_requests_total pre-registered by bounded
	// method label, then by bounded code label: the request path does a
	// map read, never a registry lookup.
	httpRequests map[string]map[string]*obs.Counter
	httpDuration *obs.Histogram

	invariants map[string]*obs.Counter // violations by check name
	sseClients *obs.Gauge              // live /v1/jobs/{id}/events streams

	// Surface-tier instruments (surface.go).
	surfaceQueries map[string]*obs.Counter // by outcome (hit/fallback_*)
	surfaceBuilds  *obs.Counter

	// Durable-store instruments (registered unconditionally; all stay zero
	// for an in-memory service).
	walAppend        *obs.Histogram
	walFsync         *obs.Histogram
	walErrors        *obs.Counter
	diskHits         *obs.Counter
	recoveredJobs    *obs.Counter
	recoveredResults *obs.Counter
	scenarioReplays  *obs.Counter

	// Cluster instruments (registered unconditionally; all stay zero on a
	// standalone service).
	leaseExpirations *obs.Counter
	requeues         *obs.Counter
}

// walBuckets span WAL append/fsync latencies: microsecond buffered writes
// up to ~100ms spinning-disk fsyncs.
var walBuckets = []float64{
	1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1,
}

func newMetrics() *metrics {
	reg := obs.NewRegistry()
	m := &metrics{
		reg: reg,
		submitted: reg.Counter("rumor_jobs_submitted_total",
			"Jobs accepted by POST /v1/jobs (cache hits included)."),
		rejected: reg.Counter("rumor_jobs_rejected_total",
			"Submissions refused because the queue was full or the service draining."),
		outcomes: map[Status]*obs.Counter{},
		cacheHits: reg.Counter("rumor_cache_hits_total",
			"Submissions answered from the result cache."),
		cacheMisses: reg.Counter("rumor_cache_misses_total",
			"Submissions that had to execute."),
		cacheEvictions: reg.Counter("rumor_cache_evictions_total",
			"Result-cache entries evicted by the LRU bound."),
		latency: map[JobType]*obs.Histogram{},
		queueWait: reg.Histogram("rumor_queue_wait_seconds",
			"Dwell time between submission and execution start.", queueWaitBuckets),
		abmStep: reg.Histogram("rumor_abm_step_seconds",
			"Wall time of one ABM transition sweep, sampled at the progress cadence.",
			[]float64{0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1}),
		running: reg.Gauge("rumor_jobs_running",
			"Jobs currently executing on the worker pool."),
		httpRequests: map[string]map[string]*obs.Counter{},
		httpDuration: reg.Histogram("rumor_http_request_duration_seconds",
			"HTTP request handling latency.",
			[]float64{0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5}),
	}
	for _, st := range []Status{StatusSucceeded, StatusFailed, StatusCancelled} {
		m.outcomes[st] = reg.Counter("rumor_jobs_finished_total",
			"Jobs reaching a terminal status.", obs.L("status", string(st)))
	}
	for _, t := range []JobType{JobODE, JobThreshold, JobABM, JobFBSM} {
		m.latency[t] = reg.Histogram("rumor_job_duration_seconds",
			"Job execution latency (cache hits excluded).",
			jobDurationBuckets, obs.L("type", string(t)))
	}
	m.queueWaitClass = map[Class]*obs.Histogram{}
	for _, c := range []Class{ClassInteractive, ClassBatch} {
		m.queueWaitClass[c] = reg.Histogram("rumor_queue_wait_class_seconds",
			"Queue dwell time decomposed by admission class.",
			queueWaitBuckets, obs.L("class", string(c)))
	}
	m.shed = reg.Counter("rumor_jobs_shed_total",
		"Batch submissions refused while the saturation detector reported saturated.")
	// Pre-register every invariant check so a scrape shows the zero series
	// (the dashboards' "nothing fired" is an explicit 0, not a gap).
	m.invariants = map[string]*obs.Counter{}
	for _, check := range invariant.Checks() {
		m.invariants[check] = reg.Counter("rumor_invariant_violations_total",
			"Numerical invariant violations detected by the per-job monitors.",
			obs.L("check", check))
	}
	m.segments = map[string]*obs.Histogram{}
	for _, seg := range []string{segQueueWait, segExecute, segSerialize} {
		m.segments[seg] = reg.Histogram("rumor_job_latency_segment_seconds",
			"End-to-end job latency decomposed into queue-wait/execute/serialize segments (DESIGN.md §14).",
			queueWaitBuckets, obs.L("segment", seg))
	}
	for _, method := range httpMethodLabels {
		m.httpRequests[method] = map[string]*obs.Counter{}
		for _, code := range httpCodeLabels {
			m.httpRequests[method][code] = reg.Counter("rumor_http_requests_total",
				"HTTP requests handled, by method and status code.",
				obs.L("method", method), obs.L("code", code))
		}
	}
	m.surfaceQueries = map[string]*obs.Counter{}
	for _, outcome := range []string{outcomeHit, outcomeFallbackUncovered, outcomeFallbackTolerance} {
		m.surfaceQueries[outcome] = reg.Counter("rumor_surface_queries_total",
			"Interactive queries answered by the response-surface tier, by outcome.",
			obs.L("outcome", outcome))
	}
	m.surfaceBuilds = reg.Counter("rumor_surface_builds_total",
		"Response-surface constructions started (reloads from the store excluded).")
	m.sseClients = reg.Gauge("rumor_sse_clients",
		"Live GET /v1/jobs/{id}/events streams.")
	m.walAppend = reg.Histogram("rumor_wal_append_seconds",
		"Wall time of one WAL append (write path; inline fsync included under -wal-sync always).",
		walBuckets)
	m.walFsync = reg.Histogram("rumor_wal_fsync_seconds",
		"Wall time of one WAL segment fsync.", walBuckets)
	m.walErrors = reg.Counter("rumor_store_wal_errors_total",
		"Durable-store operations that failed (the job continues in-memory).")
	m.diskHits = reg.Counter("rumor_store_result_hits_total",
		"Submissions answered from the on-disk result store after a memory-cache miss.")
	m.recoveredJobs = reg.Counter("rumor_store_recovered_jobs_total",
		"Unfinished jobs re-enqueued by startup recovery.")
	m.recoveredResults = reg.Counter("rumor_store_recovered_results_total",
		"Persisted results warmed into the memory cache by startup recovery.")
	m.scenarioReplays = reg.Counter("rumor_store_scenario_replays_total",
		"Uploaded scenario tables re-registered from the WAL by startup recovery.")
	m.leaseExpirations = reg.Counter("rumor_cluster_lease_expirations_total",
		"Cluster leases reaped after their TTL passed without a heartbeat.")
	m.requeues = reg.Counter("rumor_cluster_requeues_total",
		"Jobs returned to the queue after their lease expired.")
	return m
}

// queueWaitObserve records one queue dwell sample against the aggregate
// histogram and the job's admission-class series.
func (m *metrics) queueWaitObserve(c Class, wait time.Duration) {
	m.queueWait.Observe(wait.Seconds())
	if h := m.queueWaitClass[c.withDefault()]; h != nil {
		h.Observe(wait.Seconds())
	}
}

// workerLatency records one remote job execution (lease grant to result
// upload) against the per-worker histogram, created on the worker's first
// completion (obs.Registry instruments are get-or-create by name+labels).
func (m *metrics) workerLatency(worker string, elapsed time.Duration) {
	m.reg.Histogram("rumor_cluster_worker_job_seconds",
		"Remote job latency from lease grant to result upload, per worker.",
		jobDurationBuckets, obs.L("worker", worker)).Observe(elapsed.Seconds())
}

// registerDerived adds the gauges whose values are read from live service
// state at scrape time. Split from newMetrics because they close over the
// Service being constructed.
func (m *metrics) registerDerived(s *Service) {
	// Go runtime self-telemetry (DESIGN.md §13): standalone and coordinator
	// modes register here; worker nodes register the same gauges on their
	// own relay registry in internal/cluster/worker.
	obs.RegisterRuntime(m.reg)
	m.reg.GaugeFunc("rumor_queue_depth",
		"Jobs queued but not yet running (both admission classes).",
		func() float64 { return float64(s.queueLen()) })
	for i, c := range []Class{ClassInteractive, ClassBatch} {
		q := s.queues[i]
		m.reg.GaugeFunc("rumor_queue_depth_class",
			"Jobs queued but not yet running, by admission class.",
			func() float64 { return float64(len(q)) }, obs.L("class", string(c)))
	}
	m.reg.Gauge("rumor_queue_capacity",
		"Bound of the job queue.").Set(float64(s.cfg.QueueDepth))
	m.reg.Gauge("rumor_workers",
		"Size of the job worker pool.").Set(float64(s.cfg.Workers))
	m.reg.GaugeFunc("rumor_fanout_workers_active",
		"internal/par fan-out workers currently executing shards (process-wide).",
		func() float64 { return float64(par.Active()) })
	m.reg.GaugeFunc("rumor_cache_entries",
		"Entries resident in the result cache.",
		func() float64 { return float64(s.cache.len()) })
	m.reg.Gauge("rumor_cache_capacity",
		"Bound of the result cache.").Set(float64(s.cfg.CacheEntries))
	m.reg.GaugeFunc("rumor_draining",
		"1 once graceful shutdown began, else 0.",
		func() float64 {
			if s.Ready() {
				return 0
			}
			return 1
		})
	if s.sat != nil {
		m.reg.GaugeFunc("rumor_saturated",
			"1 while the queue-wait p99 over the sliding window exceeds the configured budget, else 0.",
			func() float64 {
				if s.sat.Saturated() {
					return 1
				}
				return 0
			})
		m.reg.GaugeFunc("rumor_queue_wait_window_p99_seconds",
			"Queue-wait p99 over the saturation detector's sliding window.",
			func() float64 { return s.sat.p99() })
	}
	m.reg.GaugeFunc("rumor_surface_loaded",
		"Response surfaces resident and ready to serve queries.",
		func() float64 { return float64(s.surf.readyCount()) })
	m.reg.GaugeFunc("rumor_surface_bytes",
		"Total encoded size of the resident response surfaces.",
		func() float64 { return float64(s.surf.residentBytes()) })
	m.reg.GaugeFunc("rumor_journal_entries",
		"Flight-recorder entries resident across all jobs.",
		func() float64 { return float64(s.journal.TotalLen()) })
	m.reg.GaugeFunc("rumor_journal_dropped_total",
		"Journal entries dropped on slow SSE subscribers (process lifetime).",
		func() float64 { return float64(s.journal.Dropped()) })
	m.reg.GaugeFunc("rumor_trace_spans_finished",
		"Finished spans resident in the trace ring.",
		func() float64 { return float64(len(s.tracer.Finished())) })
	if s.table != nil {
		m.reg.GaugeFunc("rumor_cluster_workers",
			"Cluster workers seen within the liveness window.",
			func() float64 { return float64(s.table.LiveWorkers()) })
		m.reg.GaugeFunc("rumor_cluster_leases_active",
			"Jobs currently leased to cluster workers.",
			func() float64 { return float64(s.table.Active()) })
	}
	if s.store != nil {
		m.reg.GaugeFunc("rumor_store_results",
			"Result blobs resident in the durable store.",
			func() float64 { return float64(s.store.Snapshot().Results) })
		m.reg.GaugeFunc("rumor_store_result_bytes",
			"Total size of the durable result store.",
			func() float64 { return float64(s.store.Snapshot().ResultBytes) })
		m.reg.GaugeFunc("rumor_store_wal_segments",
			"WAL segments on disk.",
			func() float64 { return float64(s.store.Snapshot().WALSegments) })
		m.reg.GaugeFunc("rumor_store_wal_bytes",
			"Total size of the WAL segments on disk.",
			func() float64 { return float64(s.store.Snapshot().WALBytes) })
		m.reg.GaugeFunc("rumor_store_pending_jobs",
			"Jobs logged as submitted whose terminal record has not landed.",
			func() float64 { return float64(s.store.Snapshot().PendingJobs) })
	}
}

// invariantViolation counts one fired check.
func (m *metrics) invariantViolation(check string) {
	if c := m.invariants[check]; c != nil {
		c.Inc()
	}
}

// httpObserve records one handled HTTP request.
func (m *metrics) httpObserve(method string, code int, elapsed time.Duration) {
	m.httpRequests[httpMethodLabel(method)][httpCodeLabel(code)].Inc()
	m.httpDuration.Observe(elapsed.Seconds())
}

// The method and code labels are bounded to the methods the API routes and
// the codes it emits, plus a catch-all each, honouring the cardinality
// rules: a client sending junk methods cannot mint series.
var (
	httpMethodLabels = []string{"GET", "POST", "DELETE", "other"}
	httpCodeLabels   = []string{"200", "201", "202", "400", "404", "405", "409", "500", "503", "other"}
)

func httpMethodLabel(method string) string {
	switch method {
	case "GET", "POST", "DELETE":
		return method
	default:
		return "other"
	}
}

func httpCodeLabel(code int) string {
	switch code {
	case 200, 201, 202, 400, 404, 405, 409, 500, 503:
		return strconv.Itoa(code)
	default:
		return "other"
	}
}

// snapshot fills the counter section of a Stats value from the live
// instruments. Counters are read individually; the snapshot is near-
// consistent, which is all /v1/stats ever promised.
func (m *metrics) snapshot(st *Stats) {
	st.Jobs.Submitted = m.submitted.Value()
	st.Jobs.Completed = m.outcomes[StatusSucceeded].Value()
	st.Jobs.Failed = m.outcomes[StatusFailed].Value()
	st.Jobs.Cancelled = m.outcomes[StatusCancelled].Value()
	st.Jobs.Rejected = m.rejected.Value()
	st.Jobs.Shed = m.shed.Value()
	st.Cache.Hits = m.cacheHits.Value()
	st.Cache.Misses = m.cacheMisses.Value()
	if total := st.Cache.Hits + st.Cache.Misses; total > 0 {
		st.Cache.HitRate = float64(st.Cache.Hits) / float64(total)
	}
	st.LatencyMS = make(map[string]LatencySummary)
	for t, h := range m.latency {
		count := h.Count()
		if count == 0 {
			continue // preserve the legacy shape: only types that executed
		}
		totalMS := h.Sum() * 1e3
		st.LatencyMS[string(t)] = LatencySummary{
			Count: count,
			Total: totalMS,
			Mean:  totalMS / float64(count),
			Max:   h.Max() * 1e3,
		}
	}
}
