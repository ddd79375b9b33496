package service

import (
	"encoding/json"
	"testing"
	"time"

	"rumornet/internal/store"
)

// resultReader is a store.Reader double that answers every result lookup,
// so the first submission of anything is a disk hit.
type resultReader struct{}

func (resultReader) GetResult(string) ([]byte, bool)  { return []byte(`{"r0":1.5}`), true }
func (resultReader) GetSurface(string) ([]byte, bool) { return nil, false }
func (resultReader) SurfaceKeys() []string            { return nil }

// TestLifecycleTerminalPaths drives every way a job can end — local,
// leased, reaped, cancelled, cached and recovered — and checks finish's
// contract on each: exactly one Final journal entry, exactly one +1 on
// rumor_jobs_finished_total (on the expected status), an ended job span, a
// closed done channel and no job left counted as running.
func TestLifecycleTerminalPaths(t *testing.T) {
	const (
		slowFBSM = `{"type":"fbsm","scenario":"tiny","params":{"lambda0":0.02,"grid":400000},"timeout_sec":120}`
		quick    = `{"type":"threshold","scenario":"tiny"}`
	)
	local := func(*testing.T) Config { return Config{Workers: 1} }
	coordinator := func(maxAttempts int) func(*testing.T) Config {
		return func(*testing.T) Config {
			return Config{Cluster: ClusterConfig{Enabled: true, LeaseTTL: 50 * time.Millisecond,
				ReapInterval: 5 * time.Millisecond, MaxAttempts: maxAttempts}}
		}
	}
	// recovered prepares a data directory whose WAL holds one pending job
	// (id j-000042) and, when withResult is set, that job's result blob —
	// the crash between blob write and terminal record.
	recovered := func(request string, withResult bool) func(*testing.T) Config {
		return func(t *testing.T) Config {
			dir := t.TempDir()
			probe := newTestService(t, Config{Workers: 1})
			var req Request
			if err := json.Unmarshal([]byte(request), &req); err != nil {
				t.Fatal(err)
			}
			_, _, key, _, err := probe.resolveRequest(req)
			if err != nil && withResult {
				t.Fatal(err)
			}
			st, err := store.Open(dir, store.Options{SyncMode: store.SyncNone})
			if err != nil {
				t.Fatal(err)
			}
			if err := st.AppendSubmitted(store.JobState{ID: "j-000042", Seq: 42,
				Request: json.RawMessage(request), Key: key, SubmittedAt: time.Now()}); err != nil {
				t.Fatal(err)
			}
			if withResult {
				if err := st.PutResult(key, []byte(`{"r0":1.5}`)); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			return storeConfig(dir)
		}
	}
	submit := func(t *testing.T, s *Service, body string) string {
		t.Helper()
		var req Request
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		job, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		return job.ID
	}
	lease := func(t *testing.T, s *Service) *LeasedJob {
		t.Helper()
		lj, err := s.LeaseNext("w1", "")
		if err != nil || lj == nil {
			t.Fatalf("lease: %v, %v", lj, err)
		}
		return lj
	}
	upload := func(status, errMsg string) func(*testing.T, *Service) string {
		return func(t *testing.T, s *Service) string {
			lj := lease(t, s)
			if _, err := s.CompleteLease(lj.JobID, ResultRequest{WorkerID: "w1", LeaseToken: lj.LeaseToken,
				Status: status, Error: errMsg, Result: json.RawMessage(`{"r0":1.5}`)}); err != nil {
				t.Fatal(err)
			}
			return lj.JobID
		}
	}
	running := func(t *testing.T, s *Service) string {
		id := submit(t, s, slowFBSM)
		waitRunning(t, s, id)
		return id
	}

	for _, tc := range []struct {
		name string
		cfg  func(*testing.T) Config
		// setup runs before the counters are sampled; nil samples zero, for
		// paths (recovery) that end a job inside New.
		setup func(*testing.T, *Service)
		// end drives the job to its terminal transition and returns its id.
		end  func(*testing.T, *Service) string
		want Status
	}{
		{name: "local success", cfg: local, setup: func(*testing.T, *Service) {},
			end: func(t *testing.T, s *Service) string { return submit(t, s, quick) }, want: StatusSucceeded},
		{name: "local failure", cfg: local, setup: func(*testing.T, *Service) {},
			end: func(t *testing.T, s *Service) string {
				return submit(t, s, `{"type":"ode","scenario":"tiny","params":{"lambda0":1e300}}`)
			}, want: StatusFailed},
		{name: "local timeout", cfg: local, setup: func(*testing.T, *Service) {},
			end: func(t *testing.T, s *Service) string {
				return submit(t, s, `{"type":"fbsm","scenario":"tiny","params":{"lambda0":0.02,"grid":400000},"timeout_sec":0.05}`)
			}, want: StatusFailed},
		{name: "user cancel while running", cfg: local, setup: func(*testing.T, *Service) {},
			end: func(t *testing.T, s *Service) string {
				id := running(t, s)
				if _, err := s.Cancel(id); err != nil {
					t.Fatal(err)
				}
				return id
			}, want: StatusCancelled},
		{name: "user cancel while queued", cfg: coordinator(0), setup: func(*testing.T, *Service) {},
			end: func(t *testing.T, s *Service) string {
				id := submit(t, s, quick) // no workers: it stays queued
				if _, err := s.Cancel(id); err != nil {
					t.Fatal(err)
				}
				return id
			}, want: StatusCancelled},
		{name: "shutdown cancel", cfg: local, setup: func(*testing.T, *Service) {},
			end: func(t *testing.T, s *Service) string {
				id := running(t, s)
				s.Close()
				return id
			}, want: StatusCancelled},
		{name: "memory cache hit", cfg: local,
			setup: func(t *testing.T, s *Service) { waitTerminal(t, s, submit(t, s, quick)) },
			end:   func(t *testing.T, s *Service) string { return submit(t, s, quick) }, want: StatusSucceeded},
		{name: "disk cache hit",
			cfg:   func(*testing.T) Config { return Config{Workers: 1, StoreReader: resultReader{}} },
			setup: func(*testing.T, *Service) {},
			end:   func(t *testing.T, s *Service) string { return submit(t, s, quick) }, want: StatusSucceeded},
		{name: "reaped after user cancel", cfg: coordinator(0),
			setup: func(t *testing.T, s *Service) { submit(t, s, quick) },
			end: func(t *testing.T, s *Service) string {
				id := lease(t, s).JobID
				if _, err := s.Cancel(id); err != nil {
					t.Fatal(err)
				}
				return id
			}, want: StatusCancelled},
		{name: "reaped with budget exhausted", cfg: coordinator(1),
			setup: func(t *testing.T, s *Service) { submit(t, s, quick) },
			end:   func(t *testing.T, s *Service) string { return lease(t, s).JobID }, want: StatusFailed},
		{name: "leased success", cfg: coordinator(0),
			setup: func(t *testing.T, s *Service) { submit(t, s, quick) },
			end:   upload("succeeded", ""), want: StatusSucceeded},
		{name: "leased failure", cfg: coordinator(0),
			setup: func(t *testing.T, s *Service) { submit(t, s, quick) },
			end:   upload("failed", "boom"), want: StatusFailed},
		{name: "recovered hit", cfg: recovered(`{"type":"threshold","params":{"r0":1.5}}`, true),
			end: func(*testing.T, *Service) string { return "j-000042" }, want: StatusSucceeded},
		{name: "recovered failure", cfg: recovered(`{"type":"threshold","scenario":"ghost"}`, false),
			end: func(*testing.T, *Service) string { return "j-000042" }, want: StatusFailed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestService(t, tc.cfg(t))
			tinyScenario(t, s)
			finished := func() map[Status]int64 {
				out := map[Status]int64{}
				for st, c := range s.met.outcomes {
					out[st] = c.Value()
				}
				return out
			}
			before := map[Status]int64{}
			if tc.setup != nil {
				tc.setup(t, s)
				before = finished()
			}
			id := tc.end(t, s)

			s.mu.Lock()
			r := s.jobs[id]
			s.mu.Unlock()
			if r == nil {
				t.Fatalf("job %s not retained", id)
			}
			select {
			case <-r.done:
			case <-time.After(30 * time.Second):
				t.Fatalf("job %s: done never closed", id)
			}
			job, _ := s.Job(id)
			if job.Status != tc.want {
				t.Errorf("status %s (%s), want %s", job.Status, job.Error, tc.want)
			}

			finals := 0
			for _, e := range s.journal.Replay(id) {
				if e.Final {
					finals++
				}
			}
			if finals != 1 {
				t.Errorf("%d Final journal entries, want 1", finals)
			}
			after := finished()
			for _, st := range []Status{StatusSucceeded, StatusFailed, StatusCancelled} {
				want := before[st]
				if st == tc.want {
					want++
				}
				if after[st] != want {
					t.Errorf("rumor_jobs_finished_total{status=%q} = %d, want %d", st, after[st], want)
				}
			}
			spans := 0
			for _, sp := range s.tracer.Finished() {
				if sp.Attrs["job_id"] == id && sp.Name == "job."+string(job.Type) {
					spans++
				}
			}
			if spans != 1 {
				t.Errorf("%d ended job spans, want 1", spans)
			}
			if n := s.met.running.Value(); n != 0 {
				t.Errorf("rumor_jobs_running = %g after the job ended, want 0", n)
			}
		})
	}
}
