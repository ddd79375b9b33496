package service

import (
	"encoding/json"
	"fmt"
	"time"

	"rumornet/internal/degreedist"
	"rumornet/internal/obs/journal"
	"rumornet/internal/obs/trace"
	"rumornet/internal/store"
)

// This file is the service side of the durable job store: the WAL append
// helper called on the submission and execution paths, and the startup
// recovery that turns a write-ahead log plus result store back into live
// service state. The contract, enforced by finish (lifecycle.go):
//
//   - every job that enters the queue gets an opSubmitted record (with the
//     full request, so recovery can re-enqueue it verbatim);
//   - every terminal outcome the service *chose* (success, failure, user
//     cancellation, timeout) gets an opFinished record;
//   - a shutdown-cancelled job gets NO terminal record — crash and
//     redeploy look identical in the log, and both re-run the job.
//
// WAL errors never fail the job: the daemon keeps serving from memory and
// the failure is counted (rumor_store_wal_errors_total) and logged.

// wal runs one durable-store operation when the service has a store (a
// no-op otherwise); a failure is counted and logged, never returned.
func (s *Service) wal(op, id string, fn func(*store.Store) error) {
	if s.store == nil {
		return
	}
	if err := fn(s.store); err != nil {
		s.met.walErrors.Inc()
		s.cfg.Logger.Warn("durable store operation failed",
			"op", op, "id", id, "error", err.Error())
	}
}

// recoverFromStore rebuilds service state from an opened store: completed
// results warm the memory cache (newest first, bounded by its capacity),
// unfinished jobs re-enter the queue under their original ids, and the
// sequence counter resumes above everything the log has seen. Called from
// New after scenario registration and before the workers start; the lock
// discipline of the helpers it shares with the live paths still applies.
func (s *Service) recoverFromStore() {
	// Scenario tables first: recovered jobs referencing an uploaded
	// scenario resolve only if the table is already registered. The
	// built-in name collides by design (it was never WAL-logged, but be
	// defensive about hand-edited logs) and is skipped silently.
	replayed := 0
	for _, sc := range s.store.Scenarios() {
		d, err := degreedist.New(sc.Degrees, sc.Probs)
		if err == nil {
			_, err = s.scenarios.register(sc.Name, sc.Source, d)
		}
		if err != nil {
			s.cfg.Logger.Warn("persisted scenario not re-registered",
				"scenario", sc.Name, "error", err.Error())
			continue
		}
		replayed++
	}
	s.met.scenarioReplays.Add(int64(replayed))

	keys := s.store.ResultKeys()
	if limit := s.cfg.CacheEntries; limit > 0 && len(keys) > limit {
		keys = keys[:limit]
	}
	warmed := 0
	// Oldest of the kept set first, so the newest results end up most
	// recently used and survive LRU pressure longest.
	for i := len(keys) - 1; i >= 0; i-- {
		if blob, ok := s.store.GetResult(keys[i]); ok {
			s.cache.put(keys[i], json.RawMessage(blob))
			warmed++
		}
	}
	s.met.recoveredResults.Add(int64(warmed))

	if max := s.store.MaxSeq(); s.seq < max {
		s.seq = max
	}
	pending := s.store.PendingJobs()
	requeued, served, failed := 0, 0, 0
	for _, js := range pending {
		switch s.requeueRecovered(js) {
		case StatusQueued:
			requeued++
		case StatusSucceeded:
			served++
		default:
			failed++
		}
	}
	s.met.recoveredJobs.Add(int64(requeued))
	if warmed > 0 || len(pending) > 0 || replayed > 0 {
		s.cfg.Logger.Info("recovery complete",
			"results_warmed", warmed, "scenarios_replayed", replayed,
			"jobs_requeued", requeued,
			"jobs_served_from_cache", served, "jobs_failed", failed,
			"next_seq", s.seq+1)
	}
}

// requeueRecovered re-admits one logged-but-unfinished job and returns the
// status it settled into: StatusQueued (re-enqueued), StatusSucceeded (its
// result was already on disk — the crash hit between the blob write and
// the terminal record) or StatusFailed (the request no longer resolves,
// e.g. an uploaded scenario that was not re-registered, or the queue is
// full). Failures get a terminal WAL record so the log stops re-delivering
// them; either way the job is visible to GET /v1/jobs under its old id.
func (s *Service) requeueRecovered(js store.JobState) Status {
	var req Request
	reason := ""
	if err := json.Unmarshal(js.Request, &req); err != nil {
		reason = fmt.Sprintf("recovery: undecodable request: %v", err)
	}
	// The WAL records the admission class both inside the request blob and
	// on the JobState; prefer the explicit field when the blob predates it.
	if req.Class == "" && js.Class != "" {
		req.Class = Class(js.Class)
	}
	var (
		sc      *Scenario
		key     string
		timeout time.Duration
	)
	if reason == "" {
		var err error
		req, sc, key, timeout, err = s.resolveRequest(req)
		if err != nil {
			reason = fmt.Sprintf("recovery: %v", err)
		}
	}

	s.mu.Lock()
	if _, dup := s.jobs[js.ID]; dup {
		s.mu.Unlock()
		return StatusFailed // defensive: the log should never duplicate ids
	}
	submitted := js.SubmittedAt
	if submitted.IsZero() {
		submitted = time.Now()
	}
	r := s.newRecord(js.ID, js.Seq, req, sc, key, timeout, submitted, trace.SpanContext{})
	r.span.SetAttr("recovered", "true")
	r.attempts = js.Attempts
	s.insertLocked(r)

	o := outcome{status: StatusFailed, err: reason, logMsg: "recovered job failed"}
	if reason == "" {
		// The job may have completed just before the crash: result blob
		// written, terminal record lost. The warmed cache answers it.
		if raw, hit := s.cache.get(key); hit {
			o = outcome{status: StatusSucceeded, raw: raw, cacheHit: hitRecovered,
				logMsg: "job served from cache"}
		} else {
			select {
			case s.queues[classIndex(req.Class)] <- r:
				s.mu.Unlock()
				s.journal.Append(journal.Entry{
					JobID: js.ID, TraceID: r.job.TraceID,
					Kind: journal.KindLifecycle, Msg: "recovered: re-queued after restart",
				})
				s.cfg.Logger.Info("job recovered",
					"job_id", js.ID, "type", req.Type, "scenario", req.Scenario,
					"was_started", js.Started)
				return StatusQueued
			default:
				o.err = "recovery: queue full"
			}
		}
	}
	s.mu.Unlock()
	return s.finish(r, o).Status
}
