package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"rumornet/internal/cluster"
	"rumornet/internal/degreedist"
	"rumornet/internal/obs"
	"rumornet/internal/obs/journal"
	"rumornet/internal/obs/trace"
	"rumornet/internal/store"
)

// This file is the coordinator side of distributed rumord (DESIGN.md §12).
// When Config.Cluster.Enabled is set, the Service starts no local workers;
// instead remote worker nodes (internal/cluster/worker) claim queued jobs
// over the internal API:
//
//	POST /v1/internal/lease                  — claim the next queued job
//	POST /v1/internal/jobs/{id}/heartbeat    — extend the lease, relay progress
//	POST /v1/internal/jobs/{id}/result       — upload the terminal outcome
//	POST /v1/internal/workers/{id}/deregister — graceful goodbye on drain
//
// Every grant mints a fenced lease token; heartbeats and uploads carrying a
// token that is no longer current are rejected with ErrStaleLease (409), so
// a worker presumed dead cannot corrupt a job that has since been requeued.
// The public API is unchanged: leased jobs read as running with live
// progress (the heartbeat feeds the same sink pipeline runJob wires), and a
// result upload lands blob + terminal WAL record before the terminal status
// publishes — the PR 5 durability-before-visibility ordering, extended from
// process crash to node loss.

// ErrStaleLease marks a heartbeat or result upload whose lease token is no
// longer current (409): the lease expired and the job was requeued, or the
// coordinator restarted and all tokens died with it.
var ErrStaleLease = errors.New("stale lease")

// ClusterConfig parameterizes coordinator mode. The zero value (Enabled ==
// false) keeps the service standalone: an in-process worker pool and no
// internal API.
type ClusterConfig struct {
	// Enabled switches the service to coordinator mode: no local workers,
	// jobs execute on remote nodes under leases.
	Enabled bool
	// LeaseTTL is how long a granted lease lives without a heartbeat
	// (default 15s). Expiry requeues the job, so the TTL bounds how long a
	// dead worker delays its jobs.
	LeaseTTL time.Duration
	// MaxAttempts bounds lease grants per job (default 3); a job whose
	// budget is exhausted fails terminally instead of crash-looping the
	// cluster (the poison-job guard).
	MaxAttempts int
	// WorkerLiveness is the window within which a worker must have polled
	// or heartbeated to count as live for /readyz and /v1/workers
	// (default 3x LeaseTTL).
	WorkerLiveness time.Duration
	// ReapInterval is the lease-reaper cadence (default LeaseTTL/4).
	ReapInterval time.Duration
}

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 15 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.WorkerLiveness <= 0 {
		c.WorkerLiveness = 3 * c.LeaseTTL
	}
	if c.ReapInterval <= 0 {
		c.ReapInterval = c.LeaseTTL / 4
		if c.ReapInterval <= 0 {
			c.ReapInterval = time.Millisecond
		}
	}
	return c
}

// ScenarioTable is the wire form of a scenario: the exact degree table,
// from which a worker rebuilds the Scenario (and the identical fingerprint,
// hence identical cache keys and bit-identical results).
type ScenarioTable struct {
	Name    string    `json:"name"`
	Source  string    `json:"source"`
	Degrees []int     `json:"degrees"`
	Probs   []float64 `json:"probs"`
}

// ScenarioFromTable rebuilds a Scenario from its wire table. Workers call
// it on every leased job; construction is microseconds against the solver
// seconds it precedes.
func ScenarioFromTable(t ScenarioTable) (*Scenario, error) {
	d, err := degreedist.New(t.Degrees, t.Probs)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", t.Name, err)
	}
	return &Scenario{
		Name:        t.Name,
		Source:      t.Source,
		Groups:      d.N(),
		MinDegree:   d.MinDegree(),
		MaxDegree:   d.MaxDegree(),
		MeanDegree:  d.MeanDegree(),
		Fingerprint: fingerprintDist(d),
		dist:        d,
	}, nil
}

// scenarioTable flattens a registered scenario into its wire form.
func scenarioTable(sc *Scenario) ScenarioTable {
	d := sc.dist
	t := ScenarioTable{
		Name:    sc.Name,
		Source:  sc.Source,
		Degrees: make([]int, d.N()),
		Probs:   make([]float64, d.N()),
	}
	for i := 0; i < d.N(); i++ {
		t.Degrees[i] = d.Degree(i)
		t.Probs[i] = d.Prob(i)
	}
	return t
}

// ExecuteRequest runs one resolved request against a scenario and returns
// the marshalled result payload — the executor worker nodes share with the
// coordinator's standalone mode, so a job computes the identical bytes
// wherever it runs. The request must carry canonicalized parameters (a
// LeasedJob always does).
func ExecuteRequest(ctx context.Context, sc *Scenario, req Request, innerWorkers int, prog obs.Progress) (json.RawMessage, error) {
	if innerWorkers < 1 {
		innerWorkers = 1
	}
	payload, err := execute(withInnerWorkers(ctx, innerWorkers), sc, req, prog)
	if err != nil {
		return nil, err
	}
	return json.Marshal(payload)
}

// ProgressEvent is the wire form of one solver checkpoint (obs.Event),
// relayed coordinator-ward in heartbeat and result payloads.
type ProgressEvent struct {
	Stage     string  `json:"stage,omitempty"`
	Step      int     `json:"step,omitempty"`
	Total     int     `json:"total,omitempty"`
	T         float64 `json:"t,omitempty"`
	Value     float64 `json:"value,omitempty"`
	Cost      float64 `json:"cost,omitempty"`
	ElapsedUS int64   `json:"elapsed_us,omitempty"`
	MinI      float64 `json:"min_i,omitempty"`
	MassErr   float64 `json:"mass_err,omitempty"`
}

// WireProgress converts a solver checkpoint to its wire form.
func WireProgress(ev obs.Event) ProgressEvent {
	return ProgressEvent{
		Stage: ev.Stage, Step: ev.Step, Total: ev.Total, T: ev.T,
		Value: ev.Value, Cost: ev.Cost,
		ElapsedUS: ev.Elapsed.Microseconds(),
		MinI:      ev.MinI, MassErr: ev.MassErr,
	}
}

func (p ProgressEvent) toObs() obs.Event {
	return obs.Event{
		Stage: p.Stage, Step: p.Step, Total: p.Total, T: p.T,
		Value: p.Value, Cost: p.Cost,
		Elapsed: time.Duration(p.ElapsedUS) * time.Microsecond,
		MinI:    p.MinI, MassErr: p.MassErr,
	}
}

// LeaseRequest is the body of POST /v1/internal/lease. The optional
// telemetry relay (DESIGN.md §13) lets the poll double as a metrics send:
// workers throttle registry snapshots to one per window across channels,
// and between leases the poll is the only request a worker makes — without
// it, an idle node's final counters would never reach /metrics.
type LeaseRequest struct {
	WorkerID  string             `json:"worker_id"`
	Addr      string             `json:"addr,omitempty"`
	Metrics   obs.Snapshot       `json:"metrics,omitempty"`
	Telemetry *cluster.Telemetry `json:"telemetry,omitempty"`
}

// LeasedJob is the coordinator's answer to a successful lease: everything a
// stateless worker needs to execute the job and nothing more.
type LeasedJob struct {
	JobID    string        `json:"job_id"`
	TraceID  string        `json:"trace_id,omitempty"`
	Request  Request       `json:"request"`
	Scenario ScenarioTable `json:"scenario"`
	// TimeoutMS is the job's wall-clock budget; the worker enforces it
	// locally (the lease TTL separately bounds silence, not runtime).
	TimeoutMS int64 `json:"timeout_ms"`
	// LeaseToken fences this grant; every heartbeat and the result upload
	// must present it.
	LeaseToken  string `json:"lease_token"`
	LeaseTTLMS  int64  `json:"lease_ttl_ms"`
	Attempt     int    `json:"attempt"`
	MaxAttempts int    `json:"max_attempts"`
	// Traceparent is the W3C context of the coordinator's job span. The
	// worker parents its stage spans under it, so the coordinator's
	// http.request → job.<type> chain and the worker's stage.* spans share
	// one trace id end to end (DESIGN.md §13).
	Traceparent string `json:"traceparent,omitempty"`
}

// HeartbeatRequest is the body of POST /v1/internal/jobs/{id}/heartbeat.
// Beyond the lease extension it is the telemetry relay: solver checkpoints
// (Events), worker-side journal entries, finished spans, a registry
// snapshot and a runtime-health sample all piggyback on the beat — no
// extra round trips, and a worker that can heartbeat can always report.
type HeartbeatRequest struct {
	WorkerID   string          `json:"worker_id"`
	LeaseToken string          `json:"lease_token"`
	Events     []ProgressEvent `json:"events,omitempty"`
	// Journal carries worker-local lifecycle entries for this job; the
	// coordinator merges them into the job's flight recorder (their JobID,
	// TraceID and Seq are restamped server-side — a worker cannot write
	// into another job's journal).
	Journal []journal.Entry `json:"journal,omitempty"`
	// Spans are finished worker-side spans, uploaded incrementally; the
	// coordinator imports them into its span ring so /debug/events shows
	// one coherent trace for a remotely-executed job.
	Spans []trace.SpanData `json:"spans,omitempty"`
	// Metrics is a snapshot of the worker's metric registry, re-exported by
	// the coordinator as rumor_worker_*{worker="..."} plus rumor_fleet_*
	// aggregates.
	Metrics obs.Snapshot `json:"metrics,omitempty"`
	// Telemetry is the worker's health sample for GET /v1/workers.
	Telemetry *cluster.Telemetry `json:"telemetry,omitempty"`
}

// HeartbeatAck extends the lease and carries the coordinator's cancel
// request back to the worker.
type HeartbeatAck struct {
	LeaseTTLMS int64 `json:"lease_ttl_ms"`
	Cancel     bool  `json:"cancel,omitempty"`
}

// ResultRequest is the body of POST /v1/internal/jobs/{id}/result.
type ResultRequest struct {
	WorkerID   string `json:"worker_id"`
	LeaseToken string `json:"lease_token"`
	// Status is the terminal outcome the worker reached: succeeded, failed
	// or cancelled.
	Status string          `json:"status"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	// Events is the tail of progress events since the last heartbeat,
	// applied before the job finalizes so the journal is complete.
	Events []ProgressEvent `json:"events,omitempty"`
	// Journal, Spans, Metrics and Telemetry are the final telemetry relay —
	// the same piggyback as HeartbeatRequest, so a job that finishes inside
	// one heartbeat interval still delivers its worker-side trace and
	// journal tail with the result.
	Journal   []journal.Entry    `json:"journal,omitempty"`
	Spans     []trace.SpanData   `json:"spans,omitempty"`
	Metrics   obs.Snapshot       `json:"metrics,omitempty"`
	Telemetry *cluster.Telemetry `json:"telemetry,omitempty"`
}

// ClusterStats is the cluster section of /v1/stats on a coordinator.
type ClusterStats struct {
	// Workers counts registered workers seen within the liveness window.
	Workers      int `json:"workers"`
	LeasesActive int `json:"leases_active"`
	// LeaseExpirations counts leases reaped after their TTL passed without
	// a heartbeat; Requeues the expired jobs that re-entered the queue
	// (the difference fell to cancellation or the attempt budget).
	LeaseExpirations int64 `json:"lease_expirations"`
	Requeues         int64 `json:"requeues"`
}

// Workers snapshots the worker registry (empty, never nil, on a standalone
// service, so GET /v1/workers is well-formed in every mode).
func (s *Service) Workers() []cluster.WorkerInfo {
	if s.table == nil {
		return []cluster.WorkerInfo{}
	}
	ws := s.table.Workers()
	if ws == nil {
		ws = []cluster.WorkerInfo{}
	}
	return ws
}

// DegradedReasons enumerates why the service should not receive submit
// traffic, empty when healthy. A load balancer keys off the /readyz status
// code alone; the reasons are for the operator who asks *why* the instance
// dropped out — queued work with zero live workers (every accepted job
// would sit until a worker appears) and durable-store append failures
// (accepted jobs may not survive a crash) are different pages.
func (s *Service) DegradedReasons() []string {
	var reasons []string
	if s.table != nil {
		if qd := s.queueLen(); qd > 0 && s.table.LiveWorkers() == 0 {
			reasons = append(reasons, fmt.Sprintf("no live workers, %d jobs queued", qd))
		}
	}
	if n := s.met.walErrors.Value(); n > 0 {
		reasons = append(reasons, fmt.Sprintf("durable store reported %d append/fsync errors", n))
	}
	if s.sat != nil && s.sat.Saturated() {
		reasons = append(reasons, s.sat.reason())
	}
	return reasons
}

// Degraded reports the first degradation reason, or "" when healthy.
func (s *Service) Degraded() string {
	if reasons := s.DegradedReasons(); len(reasons) > 0 {
		return reasons[0]
	}
	return ""
}

// DeregisterWorker removes a worker from the registry — the drain goodbye.
// Its leases, if any remain, expire normally.
func (s *Service) DeregisterWorker(id string) {
	if s.table == nil {
		return
	}
	s.table.Deregister(id)
	s.dropWorkerTelemetry(id)
	s.cfg.Logger.Info("worker deregistered", "worker", id)
}

// LeaseNext claims the next queued job for a worker, interactive class
// first — remote lease ordering honours the same admission priority as the
// local worker pool. It returns (nil, nil) when both queues are empty (or
// draining and dry) — the worker backs off and polls again.
func (s *Service) LeaseNext(workerID, addr string) (*LeasedJob, error) {
	if s.table == nil {
		return nil, fmt.Errorf("%w: not a coordinator", ErrNotFound)
	}
	if workerID == "" {
		return nil, fmt.Errorf("%w: worker_id required", ErrBadRequest)
	}
	s.table.Touch(workerID, addr)
	for {
		r := s.tryDequeue()
		if r == nil {
			return nil, nil
		}
		if lj := s.grantLease(r, workerID); lj != nil {
			return lj, nil
		}
		// The job left the queued state while buffered (cancelled);
		// try the next one.
	}
}

// grantLease moves one dequeued job to running (begin wires the same
// per-job pipeline runJob gets, so relayed remote events flow through
// identical plumbing) and grants it a fresh lease. Returns nil if the job
// is no longer queued.
func (s *Service) grantLease(r *jobRecord, workerID string) *LeasedJob {
	start, ok := s.begin(r, workerID, nil)
	if !ok { // cancelled while queued
		return nil
	}
	s.mu.Lock()
	r.attempts++
	attempt, lg := r.attempts, r.lg // read under s.mu: once leased, the job may be reaped and re-begun
	lease := s.table.Grant(r.job.ID, workerID, attempt)
	// The attempt count survives a coordinator restart, so the poison-job
	// budget does too.
	s.wal("attempt", r.job.ID, func(st *store.Store) error { return st.AppendAttempt(r.job.ID, attempt) })
	s.mu.Unlock()

	s.journal.Append(journal.Entry{
		JobID: r.job.ID, TraceID: r.job.TraceID,
		Kind: journal.KindLease,
		Msg: fmt.Sprintf("lease granted to worker %q (attempt %d/%d)",
			workerID, attempt, s.cfg.Cluster.MaxAttempts),
	})
	lg.Info("job leased", "attempt", attempt,
		"lease_ttl", s.table.TTL().String(),
		"queue_wait_ms", durMS(start.Sub(r.job.SubmittedAt)))
	return &LeasedJob{
		JobID:       r.job.ID,
		TraceID:     r.job.TraceID,
		Request:     r.req,
		Scenario:    scenarioTable(r.sc),
		TimeoutMS:   r.timeout.Milliseconds(),
		LeaseToken:  lease.Token,
		LeaseTTLMS:  s.table.TTL().Milliseconds(),
		Attempt:     attempt,
		MaxAttempts: s.cfg.Cluster.MaxAttempts,
		Traceparent: r.span.Context().Traceparent(),
	}
}

// ExtendLease validates the token, pushes the lease deadline out, relays
// the carried progress events through the job's sink — so SSE streams,
// GET /v1/jobs/{id} progress, invariant monitoring and metrics all keep
// working for a remotely-executing job — and merges the piggybacked
// telemetry (journal entries, spans, metrics, health sample).
func (s *Service) ExtendLease(id string, req HeartbeatRequest) (HeartbeatAck, error) {
	r, sink, lease, err := s.fenced(id, req.LeaseToken, false)
	if err != nil {
		return HeartbeatAck{}, err
	}
	s.mergeWorkerRelay(r, sink, req.Events, req.Journal, req.Spans)
	s.storeWorkerTelemetry(lease.Worker, req.Metrics, req.Telemetry)
	return HeartbeatAck{
		LeaseTTLMS: s.table.TTL().Milliseconds(),
		Cancel:     lease.Cancel || r.userCancelled.Load(),
	}, nil
}

// CompleteLease finalizes a remotely-executed job from its result upload.
// The fenced release comes first — a stale token cannot finish a job — and
// finish then applies runJob's durability-before-visibility ordering.
func (s *Service) CompleteLease(id string, res ResultRequest) (Job, error) {
	// Upload arrival closes the execute segment: the coordinator cannot see
	// inside the worker's wall clock, so lease-grant -> arrival (network
	// hop included) is what "execute" means in cluster mode (latency.go).
	arrive := time.Now()
	st := Status(res.Status)
	if !st.Terminal() || !validStatus(st) {
		return Job{}, fmt.Errorf("%w: status %q is not terminal (want succeeded, failed or cancelled)", ErrBadRequest, res.Status)
	}
	if st == StatusSucceeded && !json.Valid(res.Result) {
		return Job{}, fmt.Errorf("%w: succeeded upload must carry a JSON result", ErrBadRequest)
	}
	r, sink, lease, err := s.fenced(id, res.LeaseToken, true)
	if err != nil {
		return Job{}, err
	}
	// The lease is released: the reaper can no longer requeue this job and
	// no other worker can claim it, so finalization below is single-writer.
	// The final relay lands before the Final journal entry, so an SSE replay
	// reads worker-side entries in causal order.
	s.mergeWorkerRelay(r, sink, res.Events, res.Journal, res.Spans)
	s.storeWorkerTelemetry(lease.Worker, res.Metrics, res.Telemetry)
	return s.finish(r, outcome{status: st, err: res.Error, raw: res.Result,
		execDone: arrive, worker: lease.Worker, logMsg: "remote job finished"}), nil
}

// fenced looks up a leased job and checks the worker's lease token against
// the table under s.mu — extending the lease, or releasing it for a result
// upload. A token that is no longer current cannot touch the job. It also
// returns the progress sink of the execution the token belongs to.
func (s *Service) fenced(id, token string, release bool) (*jobRecord, obs.Progress, cluster.Lease, error) {
	if s.table == nil {
		return nil, nil, cluster.Lease{}, fmt.Errorf("%w: not a coordinator", ErrNotFound)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.jobs[id]
	if !ok {
		return nil, nil, cluster.Lease{}, fmt.Errorf("%w: job %q", ErrNotFound, id)
	}
	check := s.table.Extend
	if release {
		check = s.table.Release
	}
	lease, err := check(id, token)
	if err != nil {
		return nil, nil, cluster.Lease{}, fmt.Errorf("%w: %v", ErrStaleLease, err)
	}
	return r, r.sink, lease, nil
}

// reaper periodically requeues (or terminally fails) jobs whose lease
// expired. It runs for the service's whole life — draining does not stop
// it, Close does.
func (s *Service) reaper(interval time.Duration) {
	defer s.reaperWG.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-t.C:
			s.reapExpired()
		}
	}
}

// reapExpired pops every expired lease and settles its job: requeue under
// the attempt budget, terminal failure beyond it (or terminal cancellation
// if the user already asked). Popping the lease invalidates its token, so
// the presumed-dead worker's late heartbeat or upload bounces off
// ErrStaleLease.
func (s *Service) reapExpired() {
	for _, lease := range s.table.Expired() {
		s.met.leaseExpirations.Inc()

		s.mu.Lock()
		r, ok := s.jobs[lease.JobID]
		if !ok || r.job.Status != StatusRunning {
			s.mu.Unlock()
			s.met.running.Dec()
			continue
		}
		o := outcome{status: StatusFailed, worker: lease.Worker, logMsg: "reaped job finished"}
		switch {
		case r.userCancelled.Load():
			o.status = StatusCancelled
			o.err = fmt.Sprintf("cancelled by client; lease expired on worker %q", lease.Worker)
		case r.attempts >= s.cfg.Cluster.MaxAttempts:
			o.err = fmt.Sprintf("lease expired on worker %q and the attempt budget is exhausted (%d/%d)",
				lease.Worker, r.attempts, s.cfg.Cluster.MaxAttempts)
		case s.draining:
			// The queue channel is closed; pushing would panic. Leave the
			// job running-without-a-lease: it has no terminal WAL record,
			// so the next process life re-enqueues it — crash semantics,
			// which is what a drain racing a worker death is.
			s.mu.Unlock()
			s.met.running.Dec()
			s.cfg.Logger.Warn("lease expired while draining; job deferred to restart",
				"job_id", lease.JobID, "worker", lease.Worker)
			continue
		default:
			select {
			case s.queues[classIndex(r.req.Class)] <- r:
				// No dequeuer can look at r before s.mu is released.
				r.job.Status = StatusQueued
				r.job.StartedAt = nil
				r.job.Worker = ""
				attempts := r.attempts // read before unlock: the next grant increments it
				s.mu.Unlock()
				s.met.running.Dec()
				s.met.requeues.Inc()
				s.journal.Append(journal.Entry{
					JobID: lease.JobID, TraceID: r.job.TraceID,
					Kind: journal.KindLease,
					Msg: fmt.Sprintf("lease expired on worker %q; requeued (attempt %d/%d used)",
						lease.Worker, attempts, s.cfg.Cluster.MaxAttempts),
				})
				s.cfg.Logger.Warn("lease expired; job requeued",
					"job_id", lease.JobID, "worker", lease.Worker,
					"attempt", attempts, "max_attempts", s.cfg.Cluster.MaxAttempts)
				continue
			default:
				o.err = fmt.Sprintf("lease expired on worker %q and the queue is full", lease.Worker)
			}
		}
		s.mu.Unlock()
		s.journal.Append(journal.Entry{
			JobID: r.job.ID, TraceID: r.job.TraceID,
			Kind: journal.KindLease, Msg: "lease expired: " + o.err,
		})
		s.finish(r, o)
	}
}

// clusterRoutes mounts the internal worker API (coordinator mode only).
func (s *Service) clusterRoutes(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/internal/lease", s.handleLease)
	mux.HandleFunc("POST /v1/internal/jobs/{id}/heartbeat", s.handleHeartbeat)
	mux.HandleFunc("POST /v1/internal/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("POST /v1/internal/workers/{id}/deregister", func(w http.ResponseWriter, r *http.Request) {
		s.DeregisterWorker(r.PathValue("id"))
		w.WriteHeader(http.StatusNoContent)
	})
}

func (s *Service) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Store the relay before leasing: it lands even on a 204 from an empty
	// queue, which is exactly the idle-worker flush case.
	s.storeWorkerTelemetry(req.WorkerID, req.Metrics, req.Telemetry)
	lj, err := s.LeaseNext(req.WorkerID, req.Addr)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	if lj == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, lj)
}

func (s *Service) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ack, err := s.ExtendLease(r.PathValue("id"), req)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ack)
}

func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	var req ResultRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	job, err := s.CompleteLease(r.PathValue("id"), req)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, job)
}
