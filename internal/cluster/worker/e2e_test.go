package worker_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"rumornet/internal/cluster/worker"
	"rumornet/internal/service"
	"rumornet/internal/store"
)

// The cluster crash matrix: coordinator + worker nodes wired over real HTTP
// (httptest), exercising lease grant, heartbeat relay, crash-tolerant
// requeue, fencing, poison-job budgets, coordinator restart recovery and
// drain — the suite ROADMAP tier 2 runs under -race.

// syncBuffer collects the coordinator's journal mirror from concurrent
// writers.
type syncBuffer struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}

// harness couples a coordinator-mode Service to an httptest.Server the
// worker nodes dial.
type harness struct {
	t       *testing.T
	svc     *service.Service
	ts      *httptest.Server
	journal *syncBuffer
}

// newCoordinator boots a coordinator with fast test timings (60ms leases,
// 5ms reaps); mut adjusts the config before construction.
func newCoordinator(t *testing.T, mut func(*service.Config)) *harness {
	t.Helper()
	jb := &syncBuffer{}
	cfg := service.Config{
		QueueDepth:  16,
		JournalSink: jb,
		Cluster: service.ClusterConfig{
			Enabled:      true,
			LeaseTTL:     60 * time.Millisecond,
			ReapInterval: 5 * time.Millisecond,
			MaxAttempts:  3,
		},
	}
	if mut != nil {
		mut(&cfg)
	}
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	if _, err := svc.RegisterScenario("tiny", []int{2, 4, 8}, []float64{0.5, 0.3, 0.2}); err != nil {
		t.Fatal(err)
	}
	return &harness{t: t, svc: svc, ts: ts, journal: jb}
}

// startWorker runs a worker node against the harness and returns a stop
// function that drains it (ctx cancel, then wait for Run to return).
func (h *harness) startWorker(id string) (stop func()) {
	h.t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- worker.Run(ctx, worker.Options{
			Coordinator: h.ts.URL,
			ID:          id,
			PollMin:     2 * time.Millisecond,
			PollMax:     20 * time.Millisecond,
		})
	}()
	var once sync.Once
	stop = func() {
		once.Do(func() {
			cancel()
			select {
			case err := <-done:
				if err != nil {
					h.t.Errorf("worker %s: %v", id, err)
				}
			case <-time.After(30 * time.Second):
				h.t.Fatalf("worker %s did not stop", id)
			}
		})
	}
	h.t.Cleanup(stop)
	return stop
}

func (h *harness) waitJob(id string) service.Job {
	h.t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		job, ok := h.svc.Job(id)
		if !ok {
			h.t.Fatalf("job %s disappeared", id)
		}
		if job.Status.Terminal() {
			return job
		}
		time.Sleep(2 * time.Millisecond)
	}
	h.t.Fatalf("job %s did not settle", id)
	return service.Job{}
}

// waitStatus polls until the job reads the wanted (non-terminal) status.
func (h *harness) waitStatus(id string, want service.Status) {
	h.t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		job, ok := h.svc.Job(id)
		if !ok {
			h.t.Fatalf("job %s disappeared", id)
		}
		if job.Status == want {
			return
		}
		if job.Status.Terminal() {
			h.t.Fatalf("job %s settled as %s (%s) while waiting for %s", id, job.Status, job.Error, want)
		}
		time.Sleep(time.Millisecond)
	}
	h.t.Fatalf("job %s never reached %s", id, want)
}

// postJSON posts to the harness's API and returns status + body.
func (h *harness) postJSON(path string, body any) (int, []byte) {
	h.t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		h.t.Fatal(err)
	}
	resp, err := http.Post(h.ts.URL+path, "application/json", bytes.NewReader(blob))
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

// countWAL counts occurrences of substr across the data dir's WAL segments.
// Frames are length-prefixed JSON, so a JSON-shaped needle is unambiguous.
func countWAL(t *testing.T, dir, substr string) int {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, seg := range segs {
		raw, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		n += bytes.Count(raw, []byte(substr))
	}
	return n
}

// TestClusterEndToEnd runs a mixed workload across two worker nodes and
// checks the public API semantics a clustered deployment must preserve:
// degraded readiness without workers, per-job worker attribution, the
// registry, and cluster stats.
func TestClusterEndToEnd(t *testing.T) {
	h := newCoordinator(t, nil)

	// Queued work with no live workers: degraded readiness (503).
	job1, err := h.svc.Submit(service.Request{
		Type: service.JobThreshold, Scenario: "tiny",
		Params: service.Params{Lambda0: 0.02, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(h.ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz with queued work and no workers: %d, want 503", resp.StatusCode)
	}

	h.startWorker("w-1")
	h.startWorker("w-2")

	ids := []string{job1.ID}
	for i, body := range []service.Request{
		{Type: service.JobThreshold, Scenario: "tiny", Params: service.Params{Lambda0: 0.02, Seed: 2}},
		{Type: service.JobODE, Scenario: "tiny", Params: service.Params{Lambda0: 0.02, Tf: 40, Points: 50}},
		{Type: service.JobABM, Scenario: "tiny", Params: service.Params{Lambda0: 0.02, Trials: 2, Nodes: 500, Tf: 30}},
	} {
		job, err := h.svc.Submit(body)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, job.ID)
	}
	for _, id := range ids {
		job := h.waitJob(id)
		if job.Status != service.StatusSucceeded {
			t.Fatalf("job %s: %s (%s)", id, job.Status, job.Error)
		}
		if job.Worker != "w-1" && job.Worker != "w-2" {
			t.Errorf("job %s completed by %q, want one of the two workers", id, job.Worker)
		}
		if len(job.Result) == 0 || job.ElapsedMS <= 0 {
			t.Errorf("job %s: missing result or elapsed (%f)", id, job.ElapsedMS)
		}
	}

	// Both nodes are registered and live; readiness recovered. A worker
	// registers on its first poll, which can trail the other worker
	// draining the whole workload, so wait for the registration itself.
	ws := h.svc.Workers()
	for deadline := time.Now().Add(10 * time.Second); len(ws) < 2 && time.Now().Before(deadline); ws = h.svc.Workers() {
		time.Sleep(5 * time.Millisecond)
	}
	if len(ws) != 2 || ws[0].ID != "w-1" || ws[1].ID != "w-2" {
		t.Fatalf("Workers = %+v, want w-1 and w-2", ws)
	}
	var completed int64
	for _, w := range ws {
		if !w.Live {
			t.Errorf("worker %s not live", w.ID)
		}
		completed += w.JobsCompleted
	}
	if completed != int64(len(ids)) {
		t.Errorf("completed across workers = %d, want %d", completed, len(ids))
	}
	if resp, err = http.Get(h.ts.URL + "/readyz"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("readyz with live workers: %d, want 200", resp.StatusCode)
	}
	st := h.svc.Stats()
	if st.Cluster == nil || st.Cluster.Workers != 2 || st.Cluster.LeasesActive != 0 {
		t.Errorf("cluster stats = %+v, want 2 workers, 0 active leases", st.Cluster)
	}
	if !strings.Contains(h.journal.String(), "lease granted to worker") {
		t.Error("journal missing lease-grant events")
	}
}

// TestWorkerKillRequeue is the acceptance crash scenario: a worker leases a
// job and dies silently; the lease expires, the coordinator requeues the
// job, a surviving worker completes it with a byte-identical result, and
// the dead worker's late upload bounces off the fencing token — leaving
// exactly one terminal WAL record.
func TestWorkerKillRequeue(t *testing.T) {
	dir := t.TempDir()
	h := newCoordinator(t, func(cfg *service.Config) {
		cfg.StoreDir = dir
		cfg.StoreOptions = store.Options{SyncMode: store.SyncNone}
	})

	req := service.Request{Type: service.JobODE, Scenario: "tiny",
		Params: service.Params{Lambda0: 0.02, Tf: 40, Points: 50}}
	job, err := h.svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}

	// "w-dead" claims the job and is never heard from again.
	leased, err := h.svc.LeaseNext("w-dead", "")
	if err != nil || leased == nil {
		t.Fatalf("lease: %v, %v", leased, err)
	}
	if leased.JobID != job.ID || leased.Attempt != 1 {
		t.Fatalf("leased = %+v, want attempt 1 of %s", leased, job.ID)
	}
	if running, _ := h.svc.Job(job.ID); running.Worker != "w-dead" {
		t.Errorf("running job attributes worker %q, want w-dead", running.Worker)
	}

	// The survivor picks the job up after the lease expires.
	h.startWorker("w-live")
	done := h.waitJob(job.ID)
	if done.Status != service.StatusSucceeded {
		t.Fatalf("job after requeue: %s (%s)", done.Status, done.Error)
	}
	if done.Worker != "w-live" {
		t.Errorf("completed by %q, want the survivor w-live", done.Worker)
	}
	st := h.svc.Stats()
	if st.Cluster.LeaseExpirations < 1 || st.Cluster.Requeues < 1 {
		t.Errorf("cluster stats = %+v, want >=1 expiration and requeue", st.Cluster)
	}
	// The journal mirror JSON-escapes the quoted worker names.
	jl := h.journal.String()
	if !strings.Contains(jl, `lease granted to worker \"w-dead\"`) ||
		!strings.Contains(jl, "requeued") ||
		!strings.Contains(jl, `lease granted to worker \"w-live\"`) {
		t.Errorf("journal does not show the job migrating:\n%s", jl)
	}

	// The dead worker wakes up and uploads against its superseded token:
	// fenced out with 409, job untouched.
	code, body := h.postJSON("/v1/internal/jobs/"+job.ID+"/result", service.ResultRequest{
		WorkerID:   "w-dead",
		LeaseToken: leased.LeaseToken,
		Status:     string(service.StatusFailed),
		Error:      "late and wrong",
	})
	if code != http.StatusConflict {
		t.Errorf("late upload: %d %s, want 409", code, body)
	}
	// And so does its late heartbeat.
	code, body = h.postJSON("/v1/internal/jobs/"+job.ID+"/heartbeat", service.HeartbeatRequest{
		WorkerID: "w-dead", LeaseToken: leased.LeaseToken,
	})
	if code != http.StatusConflict {
		t.Errorf("late heartbeat: %d %s, want 409", code, body)
	}
	after, _ := h.svc.Job(job.ID)
	if after.Status != service.StatusSucceeded || !bytes.Equal(after.Result, done.Result) {
		t.Errorf("late upload mutated the job: %s", after.Status)
	}

	// Exactly one terminal WAL record — the late upload added nothing.
	needle := fmt.Sprintf(`"op":"finished","job_id":"%s"`, job.ID)
	if n := countWAL(t, dir, needle); n != 1 {
		t.Errorf("WAL holds %d terminal records for %s, want exactly 1", n, job.ID)
	}

	// Byte-identical to a standalone run of the same request.
	alone, err := service.New(service.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer alone.Close()
	if _, err := alone.RegisterScenario("tiny", []int{2, 4, 8}, []float64{0.5, 0.3, 0.2}); err != nil {
		t.Fatal(err)
	}
	ref, err := alone.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for !ref.Status.Terminal() {
		if time.Now().After(deadline) {
			t.Fatal("standalone reference job did not settle")
		}
		time.Sleep(2 * time.Millisecond)
		ref, _ = alone.Job(ref.ID)
	}
	if ref.Status != service.StatusSucceeded {
		t.Fatalf("standalone reference: %s (%s)", ref.Status, ref.Error)
	}
	if !bytes.Equal(ref.Result, done.Result) {
		t.Errorf("cluster result differs from standalone:\n%s\nvs\n%s", done.Result, ref.Result)
	}
}

// TestCoordinatorRestartWithLeasedJob restarts the coordinator while a job
// is leased out: WAL replay re-enqueues the job under its original id with
// the attempt budget intact, the old worker's heartbeat (its token died
// with the old process) is rejected, and the job completes on a fresh
// lease.
func TestCoordinatorRestartWithLeasedJob(t *testing.T) {
	dir := t.TempDir()
	cfg := service.Config{
		QueueDepth: 16,
		StoreDir:   dir,
		StoreOptions: store.Options{
			SyncMode: store.SyncNone,
		},
		Cluster: service.ClusterConfig{
			Enabled:  true,
			LeaseTTL: time.Hour, // no reaping in this test; restart does the work
		},
	}
	svc1, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The built-in scenario; uploaded tables survive restarts too via their
	// own WAL records (TestScenarioWALReplay covers that path).
	job, err := svc1.Submit(service.Request{Type: service.JobThreshold,
		Params: service.Params{Lambda0: 0.02}})
	if err != nil {
		t.Fatal(err)
	}
	leased, err := svc1.LeaseNext("w-old", "")
	if err != nil || leased == nil || leased.Attempt != 1 {
		t.Fatalf("lease: %+v, %v", leased, err)
	}
	svc1.Close() // the "crash": the leased job has no terminal WAL record

	h := &harness{t: t, journal: &syncBuffer{}}
	cfg.JournalSink = h.journal
	h.svc, err = service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.ts = httptest.NewServer(h.svc.Handler())
	t.Cleanup(func() {
		h.ts.Close()
		h.svc.Close()
	})

	// Recovery re-enqueued the job under its original id.
	rec, ok := h.svc.Job(job.ID)
	if !ok || rec.Status != service.StatusQueued {
		t.Fatalf("recovered job = %+v ok=%v, want %s queued", rec, ok, job.ID)
	}
	// The old worker's heartbeat carries a token of the previous process
	// life: every restart invalidates all tokens.
	code, body := h.postJSON("/v1/internal/jobs/"+job.ID+"/heartbeat", service.HeartbeatRequest{
		WorkerID: "w-old", LeaseToken: leased.LeaseToken,
	})
	if code != http.StatusConflict {
		t.Errorf("stale heartbeat after restart: %d %s, want 409", code, body)
	}

	// A fresh lease continues the attempt count where the WAL left it.
	leased2, err := h.svc.LeaseNext("w-new", "")
	if err != nil || leased2 == nil {
		t.Fatalf("lease after restart: %v, %v", leased2, err)
	}
	if leased2.JobID != job.ID || leased2.Attempt != 2 {
		t.Errorf("leased after restart = attempt %d of %s, want attempt 2 of %s",
			leased2.Attempt, leased2.JobID, job.ID)
	}

	// Complete it through the executor a real worker runs.
	sc, err := service.ScenarioFromTable(leased2.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := service.ExecuteRequest(context.Background(), sc, leased2.Request, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	fin, err := h.svc.CompleteLease(job.ID, service.ResultRequest{
		WorkerID:   "w-new",
		LeaseToken: leased2.LeaseToken,
		Status:     string(service.StatusSucceeded),
		Result:     raw,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fin.Status != service.StatusSucceeded || fin.Worker != "w-new" {
		t.Errorf("completed job = %s by %q, want succeeded by w-new", fin.Status, fin.Worker)
	}
}

// TestPoisonJobExhaustsBudget leases a job to workers that keep dying until
// MaxAttempts is spent, then checks the job fails terminally instead of
// crash-looping the cluster forever.
func TestPoisonJobExhaustsBudget(t *testing.T) {
	h := newCoordinator(t, func(cfg *service.Config) {
		cfg.Cluster.MaxAttempts = 2
		cfg.Cluster.LeaseTTL = 40 * time.Millisecond
	})
	job, err := h.svc.Submit(service.Request{Type: service.JobThreshold, Scenario: "tiny",
		Params: service.Params{Lambda0: 0.02}})
	if err != nil {
		t.Fatal(err)
	}

	// Attempt 1: lease and go silent; the reaper requeues.
	leased, err := h.svc.LeaseNext("w-flaky", "")
	if err != nil || leased == nil || leased.Attempt != 1 {
		t.Fatalf("first lease: %+v, %v", leased, err)
	}
	h.waitStatus(job.ID, service.StatusQueued)

	// Attempt 2: lease and go silent again; the budget is spent, so expiry
	// is terminal.
	deadline := time.Now().Add(30 * time.Second)
	for {
		leased, err = h.svc.LeaseNext("w-flaky", "")
		if err != nil {
			t.Fatal(err)
		}
		if leased != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("requeued job never became leasable")
		}
		time.Sleep(time.Millisecond)
	}
	if leased.Attempt != 2 {
		t.Fatalf("second lease attempt = %d, want 2", leased.Attempt)
	}

	done := h.waitJob(job.ID)
	if done.Status != service.StatusFailed || !strings.Contains(done.Error, "attempt budget is exhausted (2/2)") {
		t.Fatalf("poison job = %s (%s), want terminal failure naming the budget", done.Status, done.Error)
	}
	st := h.svc.Stats()
	if st.Cluster.LeaseExpirations != 2 || st.Cluster.Requeues != 1 {
		t.Errorf("cluster stats = %+v, want 2 expirations, 1 requeue", st.Cluster)
	}
}

// TestHeartbeatRelaysProgressAndCancel drives the heartbeat path by hand:
// relayed events surface as the job's live progress, a client cancellation
// rides back on the ack, and the worker's cancelled upload settles the job.
func TestHeartbeatRelaysProgressAndCancel(t *testing.T) {
	h := newCoordinator(t, func(cfg *service.Config) {
		cfg.Cluster.LeaseTTL = 5 * time.Second // no reaping mid-test
	})
	job, err := h.svc.Submit(service.Request{Type: service.JobODE, Scenario: "tiny",
		Params: service.Params{Lambda0: 0.02, Tf: 40}})
	if err != nil {
		t.Fatal(err)
	}
	leased, err := h.svc.LeaseNext("w-hb", "")
	if err != nil || leased == nil {
		t.Fatalf("lease: %v, %v", leased, err)
	}

	code, body := h.postJSON("/v1/internal/jobs/"+job.ID+"/heartbeat", service.HeartbeatRequest{
		WorkerID: "w-hb", LeaseToken: leased.LeaseToken,
		Events: []service.ProgressEvent{{Stage: "ode", Step: 5, Total: 100, T: 1.5, Value: 0.2}},
	})
	if code != http.StatusOK {
		t.Fatalf("heartbeat: %d %s", code, body)
	}
	var ack service.HeartbeatAck
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Cancel {
		t.Error("uncancelled job acked cancel")
	}
	live, _ := h.svc.Job(job.ID)
	if live.Progress == nil || live.Progress.Stage != "ode" || live.Progress.Step != 5 {
		t.Errorf("relayed progress = %+v, want the heartbeat's ode step 5", live.Progress)
	}

	// An upload that is not terminal is a bad request, not a state change.
	if code, body = h.postJSON("/v1/internal/jobs/"+job.ID+"/result", service.ResultRequest{
		WorkerID: "w-hb", LeaseToken: leased.LeaseToken, Status: "running",
	}); code != http.StatusBadRequest {
		t.Errorf("non-terminal upload: %d %s, want 400", code, body)
	}

	// Cancel client-side; the next heartbeat tells the worker to stop.
	if _, err := h.svc.Cancel(job.ID); err != nil {
		t.Fatal(err)
	}
	code, body = h.postJSON("/v1/internal/jobs/"+job.ID+"/heartbeat", service.HeartbeatRequest{
		WorkerID: "w-hb", LeaseToken: leased.LeaseToken,
	})
	if code != http.StatusOK {
		t.Fatalf("heartbeat after cancel: %d %s", code, body)
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatal(err)
	}
	if !ack.Cancel {
		t.Error("heartbeat after client cancel did not ack cancel")
	}

	// The worker winds down and uploads the cancellation.
	if code, body = h.postJSON("/v1/internal/jobs/"+job.ID+"/result", service.ResultRequest{
		WorkerID: "w-hb", LeaseToken: leased.LeaseToken,
		Status: string(service.StatusCancelled), Error: "cancelled by client",
	}); code != http.StatusOK {
		t.Fatalf("cancelled upload: %d %s", code, body)
	}
	done := h.waitJob(job.ID)
	if done.Status != service.StatusCancelled {
		t.Errorf("job = %s, want cancelled", done.Status)
	}
	// The released lease fences any further traffic.
	if code, body = h.postJSON("/v1/internal/jobs/"+job.ID+"/heartbeat", service.HeartbeatRequest{
		WorkerID: "w-hb", LeaseToken: leased.LeaseToken,
	}); code != http.StatusConflict {
		t.Errorf("heartbeat after release: %d %s, want 409", code, body)
	}
}

// TestCoordinatorDrainWaitsForRemoteJobs drains a coordinator with work
// still queued and leased: remote workers keep leasing from the closed
// queue's buffer and every job settles before Drain returns.
func TestCoordinatorDrainWaitsForRemoteJobs(t *testing.T) {
	h := newCoordinator(t, func(cfg *service.Config) {
		cfg.Cluster.LeaseTTL = 500 * time.Millisecond
	})
	h.startWorker("w-drain")

	var ids []string
	for seed := 1; seed <= 3; seed++ {
		job, err := h.svc.Submit(service.Request{Type: service.JobThreshold, Scenario: "tiny",
			Params: service.Params{Lambda0: 0.02, Seed: int64(seed)}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, job.ID)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := h.svc.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range ids {
		job, _ := h.svc.Job(id)
		if job.Status != service.StatusSucceeded {
			t.Errorf("job %s after drain: %s (%s), want succeeded", id, job.Status, job.Error)
		}
	}
}

// TestWorkerDrainFinishesLeasedJob SIGTERMs (ctx-cancels) a worker mid-job:
// Run returns only after the leased job completed and its result uploaded.
func TestWorkerDrainFinishesLeasedJob(t *testing.T) {
	h := newCoordinator(t, func(cfg *service.Config) {
		cfg.Cluster.LeaseTTL = 5 * time.Second
	})
	// Slow enough (millions of ABM node-steps) that the cancel lands mid-job.
	job, err := h.svc.Submit(service.Request{Type: service.JobABM, Scenario: "tiny",
		Params: service.Params{Lambda0: 0.001, Trials: 3, Nodes: 20000, Tf: 150}})
	if err != nil {
		t.Fatal(err)
	}
	stop := h.startWorker("w-term")
	h.waitStatus(job.ID, service.StatusRunning)

	stop() // blocks until Run returns — i.e. until the drain completed

	done, _ := h.svc.Job(job.ID)
	if done.Status != service.StatusSucceeded {
		t.Fatalf("job after worker drain: %s (%s), want succeeded before Run returned",
			done.Status, done.Error)
	}
	if done.Worker != "w-term" {
		t.Errorf("completed by %q, want the drained worker", done.Worker)
	}
}
