package service

import (
	"context"
	"encoding/json"
	"log/slog"
	"time"

	"rumornet/internal/obs/invariant"
	"rumornet/internal/obs/journal"
	"rumornet/internal/store"
)

// This file is the job lifecycle (DESIGN.md §7): begin is the only code that
// moves a job from queued to running, finish the only code that makes it
// terminal. Local workers (runJob), cluster leases (grantLease/CompleteLease),
// the lease reaper, Cancel, cache hits and startup recovery all end a job by
// describing how it ended in an outcome and handing it to finish, so the
// durability ordering, the cache and journal bookkeeping, the latency
// segments, the metrics and the Theorem 5 outcome check live in one place.

// Cache-hit sources: where a job's result came from without running it.
const (
	hitMemory    = "memory"    // the in-memory result cache, at submission
	hitDisk      = "disk"      // the durable result store, at submission
	hitRecovered = "recovered" // the warmed cache, for a job recovered from the WAL
)

// outcome is how a job ended: everything finish needs to make it terminal.
type outcome struct {
	status Status
	err    string          // Job.Error of a job that did not succeed
	raw    json.RawMessage // the result of a succeeded job
	// execDone ends the execute segment: executor return for a local job,
	// result-upload arrival for a leased one. Zero for a job that never
	// finished executing (queued cancel, reaped lease, cache hit, recovery).
	execDone time.Time
	// cacheHit names the source of a result served without running
	// (hitMemory, hitDisk or hitRecovered); "" for everything else.
	cacheHit string
	// worker is the lease holder of a remote completion or a reaped lease.
	worker string
	// shutdown marks a cancellation by shutdown: it gets no terminal WAL
	// record, so a restart over the same data directory re-runs the job.
	shutdown bool
	// logMsg is the message of the one log line finish writes.
	logMsg string
}

// jobLogger is the job-scoped logger every line about one job goes through,
// so its records correlate with the job, its trace and its lease holder.
func (s *Service) jobLogger(r *jobRecord, worker string) *slog.Logger {
	lg := s.cfg.Logger.With("job_id", r.job.ID, "type", r.job.Type, "trace_id", r.job.TraceID)
	if worker != "" {
		lg = lg.With("worker", worker)
	}
	return lg
}

// begin moves a dequeued job to running and wires its per-execution
// pipeline: the job logger, the invariant monitor and the progress sink that
// local solver events and relayed remote events both flow through. worker is
// the lease holder ("" for a local worker); cancel stops a local execution
// (nil for a lease). It returns the start time, or false if the job left the
// queued state while buffered (cancelled).
func (s *Service) begin(r *jobRecord, worker string, cancel context.CancelFunc) (time.Time, bool) {
	lg := s.jobLogger(r, worker)
	monitor := invariant.New(s.cfg.Invariants, func(v invariant.Violation) {
		s.met.invariantViolation(v.Check)
		s.journal.Append(journal.Entry{
			JobID: r.job.ID, TraceID: r.job.TraceID,
			Kind: journal.KindInvariant, Check: v.Check, Msg: v.Msg,
			Stage: v.Event.Stage, Step: v.Event.Step, T: v.Event.T,
			Value: v.Event.Value,
		})
		lg.Warn("invariant violation", "check", v.Check, "detail", v.Msg,
			"stage", v.Event.Stage, "step", v.Event.Step, "t", v.Event.T)
	})
	sink := s.progressSink(r, monitor, lg)

	s.mu.Lock()
	if r.job.Status != StatusQueued || r.userCancelled.Load() {
		s.mu.Unlock()
		return time.Time{}, false
	}
	start := time.Now()
	r.job.Status = StatusRunning
	r.job.StartedAt = &start
	r.job.Worker = worker
	r.cancel, r.lg, r.monitor, r.sink = cancel, lg, monitor, sink
	s.wal("started", r.job.ID, func(st *store.Store) error { return st.AppendStarted(r.job.ID) })
	s.mu.Unlock()

	queueWait := start.Sub(r.job.SubmittedAt)
	s.met.queueWaitObserve(r.req.Class, queueWait)
	if s.sat != nil {
		s.sat.observe(queueWait, start)
	}
	s.met.running.Inc()
	s.journal.Append(journal.Entry{
		JobID: r.job.ID, TraceID: r.job.TraceID,
		Kind: journal.KindLifecycle, Msg: "started",
	})
	return start, true
}

// finish makes a job terminal and returns its final snapshot. The first
// call wins: a job that is already terminal is returned unchanged, which is
// how a cancellation racing a cache hit settles.
func (s *Service) finish(r *jobRecord, o outcome) Job {
	succeeded := o.status == StatusSucceeded
	if succeeded {
		o.err = ""
	}
	ran := !o.execDone.IsZero()
	// Theorem 5 consistency of a finished trajectory; a violation lands in
	// the journal before the Final entry below.
	if succeeded && r.monitor != nil && r.req.Type == JobODE {
		var res struct {
			R0     float64 `json:"r0"`
			FinalI float64 `json:"final_i"`
		}
		if json.Unmarshal(o.raw, &res) == nil {
			r.monitor.CheckOutcome(res.R0, res.FinalI)
		}
	}
	// Submission cache hits were never logged as submitted; a shutdown
	// cancellation must stay pending so a restart re-runs it.
	logged := o.cacheHit != hitMemory && o.cacheHit != hitDisk && !o.shutdown
	if succeeded {
		// Durability before visibility: the result blob and the terminal
		// record land on disk while the job still reads as running, so a
		// poller that observes "succeeded" and kills the process cannot lose
		// the result. Deliberately outside s.mu — the blob write is hundreds
		// of microseconds of filesystem work and must not serialize workers.
		if ran {
			s.wal("put result", r.key, func(st *store.Store) error { return st.PutResult(r.key, o.raw) })
		}
		if logged {
			s.walFinished(r.job.ID, StatusSucceeded)
		}
	}

	s.mu.Lock()
	if r.job.Status.Terminal() {
		job := r.snapshot()
		s.mu.Unlock()
		return job
	}
	wasRunning := r.job.Status == StatusRunning
	fin := time.Now()
	r.job.Status = o.status
	r.job.FinishedAt = &fin
	var queueWait, execute, serialize time.Duration
	if ran = ran && r.job.StartedAt != nil; ran {
		start := *r.job.StartedAt
		queueWait, execute, serialize = start.Sub(r.job.SubmittedAt), o.execDone.Sub(start), fin.Sub(o.execDone)
		r.job.ElapsedMS = durMS(fin.Sub(start))
		r.job.Latency = &JobLatency{
			QueueWaitMS: durMS(queueWait),
			ExecuteMS:   durMS(execute),
			SerializeMS: durMS(serialize),
		}
	} else {
		r.job.Worker = "" // a reaped lease leaves no worker behind
	}
	if succeeded {
		r.job.Result = o.raw
		r.job.CacheHit = o.cacheHit != ""
		if ran {
			if evicted := s.cache.put(r.key, o.raw); len(evicted) > 0 {
				s.met.cacheEvictions.Add(int64(len(evicted)))
				s.trimEvictedLocked(evicted)
			}
		}
		// The job's journal lives exactly as long as the cache entry backing
		// its result; record the dependency so eviction trims both.
		s.keyJobs[r.key] = append(s.keyJobs[r.key], r.job.ID)
	} else {
		r.job.Error = o.err
		if logged {
			// Terminal record first: once a poller can observe the status,
			// the WAL will not re-enqueue the job after a restart.
			s.walFinished(r.job.ID, o.status)
		}
	}
	job := r.snapshot()
	lg, attempts := r.lg, r.attempts
	s.mu.Unlock()

	if wasRunning {
		s.met.running.Dec()
	}
	s.met.outcomes[o.status].Inc()
	if ran { // cache hits and never-started jobs have no latency to attribute
		elapsed := execute + serialize
		s.met.latency[r.job.Type].Observe(elapsed.Seconds())
		s.met.segments[segQueueWait].Observe(queueWait.Seconds())
		s.met.segments[segExecute].Observe(execute.Seconds())
		s.met.segments[segSerialize].Observe(serialize.Seconds())
		if o.worker != "" {
			s.met.workerLatency(o.worker, elapsed)
		}
	}

	msg := "finished: " + string(o.status)
	switch {
	case o.cacheHit == hitRecovered:
		msg += " (recovered result)"
	case o.cacheHit != "":
		msg += " (cache hit)"
	case o.err != "":
		msg += ": " + o.err
	}
	s.journal.Append(journal.Entry{
		JobID: r.job.ID, TraceID: r.job.TraceID,
		Kind: journal.KindLifecycle, Msg: msg, Final: true,
	})
	if o.cacheHit != "" {
		r.span.SetAttr("cache_hit", o.cacheHit)
	}
	r.endSpans(o.status)

	if lg == nil {
		lg = s.jobLogger(r, o.worker)
	}
	attrs := []any{"status", o.status}
	if ran {
		attrs = append(attrs, "elapsed_ms", job.ElapsedMS)
	}
	if o.worker != "" {
		attrs = append(attrs, "attempt", attempts)
	}
	if o.cacheHit != "" {
		attrs = append(attrs, "source", o.cacheHit)
	}
	if succeeded {
		lg.Info(o.logMsg, attrs...)
	} else {
		lg.Warn(o.logMsg, append(attrs, "error", o.err)...)
	}
	close(r.done)
	return job
}

// walFinished logs a terminal outcome; finish calls it before publishing
// the status, so the record is on disk before any poller can observe it.
func (s *Service) walFinished(id string, status Status) {
	s.wal("finished", id, func(st *store.Store) error { return st.AppendFinished(id, string(status)) })
}

// durMS renders a duration in fractional milliseconds, the unit of every
// *_ms field on the API.
func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
