package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// maxConns is the generator's connection limit to rumord: the load is offered
// by one process over at most two connections, so the generator cannot
// outnumber the server's CPUs with its own goroutines.
const maxConns = 2

func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
			DisableCompression:  true,
		},
		Timeout: 120 * time.Second,
	}
}

// jobView is the part of a job record the generator reads.
type jobView struct {
	ID          string          `json:"id"`
	Type        string          `json:"type"`
	Status      string          `json:"status"`
	CacheHit    bool            `json:"cache_hit"`
	Error       string          `json:"error"`
	Result      json.RawMessage `json:"result"`
	SubmittedAt time.Time       `json:"submitted_at"`
	StartedAt   *time.Time      `json:"started_at"`
	FinishedAt  *time.Time      `json:"finished_at"`
	Latency     *struct {
		QueueWaitMS float64 `json:"queue_wait_ms"`
		ExecuteMS   float64 `json:"execute_ms"`
		SerializeMS float64 `json:"serialize_ms"`
	} `json:"latency"`
}

func (j *jobView) terminal() bool {
	return j.Status == "succeeded" || j.Status == "failed" || j.Status == "cancelled"
}

// queryView is a /v1/query answer.
type queryView struct {
	Source     string             `json:"source"`
	Values     map[string]float64 `json:"values"`
	ErrorBound map[string]float64 `json:"error_bound"`
	Job        *jobView           `json:"job"`
}

// sample is one successful request: when it was scheduled and its
// end-to-end latency in milliseconds.
type sample struct {
	sched time.Time
	ms    float64
}

// outcome is one request as the generator saw it.
type outcome struct {
	class string // request class, e.g. "fbsm", "query", "hit", "cold"
	phase string
	body  []byte // the job request, for the post-run check
	sched time.Time
	done  time.Time
	ok    bool
	err   string
	job   *jobView
	polls int
}

// session issues requests to one rumord and keeps what it saw. Answers
// that can be checked as they arrive (surface queries, cache hits) are
// checked inline and only their latency is kept; job answers are kept
// whole for the post-run check against the in-process service.
type session struct {
	cl   *http.Client
	base string
	tr   *tracer // nil in untraced phases

	mu        sync.Mutex
	lateMS    []float64            // send time minus due time, every scheduled send
	rttUS     map[string][]float64 // per route
	lat       map[string][]sample  // "phase class" -> successful requests
	attempted int
	failed    int
	wrong     []string
	kept      []*outcome
	// polls counts the GETs of the polled jobs, for polls per job.
	polls, polled int
}

func newSession(cl *http.Client, base string) *session {
	return &session{cl: cl, base: base, rttUS: make(map[string][]float64), lat: make(map[string][]sample)}
}

// maxWrong bounds the wrong answers a run lists.
const maxWrong = 20

// addWrong records a wrong answer; the caller holds d.mu.
func (d *session) addWrong(what string, err error) {
	if len(d.wrong) < maxWrong {
		d.wrong = append(d.wrong, what+": "+err.Error())
	}
}

// roundTrip waits until due, sends one request and reads the whole answer.
// Lateness (send minus due) and the round trip are recorded, and traced
// as gen.late and http.<route> spans under parent.
func (d *session) roundTrip(ctx context.Context, route, method, path string, body []byte, due time.Time, req, parent int) (int, []byte, time.Time, time.Time, error) {
	sleepUntil(due)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	hreq, err := http.NewRequestWithContext(ctx, method, d.base+path, rd)
	if err != nil {
		return 0, nil, time.Time{}, time.Time{}, err
	}
	if body != nil {
		hreq.Header.Set("Content-Type", "application/json")
	}
	send := time.Now()
	resp, err := d.cl.Do(hreq)
	if err != nil {
		return 0, nil, send, time.Now(), err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	recv := time.Now()
	late := send.Sub(due)
	if late < 0 {
		late = 0
	}
	d.mu.Lock()
	d.lateMS = append(d.lateMS, float64(late)/1e6)
	d.rttUS[route] = append(d.rttUS[route], float64(recv.Sub(send))/1e3)
	d.mu.Unlock()
	if late > 0 {
		d.tr.add(req, parent, "gen.late", "gen", due, send)
	}
	d.tr.add(req, parent, "http."+route, "http", send, recv)
	return resp.StatusCode, raw, send, recv, err
}

// record books a finished request: a wrong answer (wrongErr) is a failure
// and is listed, a successful one adds its latency, and keep holds the
// outcome for the post-run check.
func (d *session) record(o *outcome, wrongErr error, keep bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.attempted++
	if wrongErr != nil {
		o.ok, o.err = false, wrongErr.Error()
		d.addWrong(o.class, wrongErr)
	}
	if o.ok {
		k := o.phase + " " + o.class
		d.lat[k] = append(d.lat[k], sample{o.sched, float64(o.done.Sub(o.sched)) / 1e6})
	} else {
		d.failed++
	}
	if o.polls > 0 {
		d.polls += o.polls
		d.polled++
	}
	if keep {
		d.kept = append(d.kept, o)
	}
}

// runJob submits body at path ("/v1/jobs", or "/v1/query" for a query
// that falls back to a job), polls the job every pollEvery until it is
// terminal, and records the outcome. Latency counts from sched; due is
// when the request could first be sent. check, when set, verifies the
// terminal record inline; otherwise the outcome is kept for the post-run
// check.
func (d *session) runJob(ctx context.Context, class, phase, route, path string, body []byte, sched, due time.Time, pollEvery time.Duration, check func(*jobView) error) *outcome {
	o := &outcome{class: class, phase: phase, body: body, sched: sched}
	var wrongErr error
	defer func() { d.record(o, wrongErr, check == nil) }()
	req := d.tr.newReq()
	root := d.tr.add(req, -1, "request."+class, "request", sched, sched) // end fixed below
	d.traceWait(req, root, sched, due)
	code, raw, _, recv, err := d.roundTrip(ctx, route, http.MethodPost, path, body, due, req, root)
	var job jobView
	switch {
	case err != nil:
	case code != http.StatusOK && code != http.StatusAccepted:
		err = fmt.Errorf("%s: status %d: %.200s", route, code, raw)
	case path == "/v1/query":
		var q queryView
		if err = json.Unmarshal(raw, &q); err == nil {
			if q.Job == nil {
				err = fmt.Errorf("post_query: answered from %q, expected a job", q.Source)
			} else {
				job = *q.Job
			}
		}
	default:
		err = json.Unmarshal(raw, &job)
	}
	for err == nil && !job.terminal() {
		next := recv.Add(pollEvery)
		var pcode int
		var praw []byte
		pcode, praw, _, recv, err = d.roundTrip(ctx, "get_job", http.MethodGet, "/v1/jobs/"+job.ID, nil, next, req, root)
		d.tr.add(req, root, "poll.wait", "poll", next.Add(-pollEvery), next)
		o.polls++
		if err == nil && pcode != http.StatusOK {
			err = fmt.Errorf("get_job: status %d: %.200s", pcode, praw)
		}
		if err == nil {
			err = json.Unmarshal(praw, &job)
		}
	}
	o.done = time.Now()
	d.closeRoot(root, o.done)
	if err != nil {
		o.err = err.Error()
		return o
	}
	o.job = &job
	d.traceServer(req, root, &job)
	if job.Status != "succeeded" {
		o.err = fmt.Sprintf("job %s %s: %s", job.ID, job.Status, job.Error)
		return o
	}
	o.ok = true
	if check != nil {
		wrongErr = check(&job)
	}
	return o
}

// traceServer places the server's own segment times, read from the
// terminal job record, under the request's root span.
func (d *session) traceServer(req, root int, j *jobView) {
	if d.tr == nil || j.StartedAt == nil || j.FinishedAt == nil || j.Latency == nil {
		return
	}
	sp := d.tr.add(req, root, "service.job", "service", j.SubmittedAt, *j.FinishedAt)
	exe := j.StartedAt.Add(time.Duration(j.Latency.ExecuteMS * 1e6))
	d.tr.add(req, sp, "service.queue_wait", "service.queue_wait", j.SubmittedAt, *j.StartedAt)
	d.tr.add(req, sp, "service.execute", "service.execute", *j.StartedAt, exe)
	d.tr.add(req, sp, "service.serialize", "service.serialize", exe, *j.FinishedAt)
}

// traceWait records the time a request, due at sched, waited for one of
// the generator's connections to come free.
func (d *session) traceWait(req, root int, sched, due time.Time) {
	if due.After(sched) {
		d.tr.add(req, root, "conn.wait", "conn", sched, due)
	}
}

func (d *session) closeRoot(id int, end time.Time) {
	if d.tr == nil || id < 0 {
		return
	}
	d.tr.mu.Lock()
	d.tr.spans[id].End = end.UnixNano()
	d.tr.mu.Unlock()
}

// query sends one surface query for p (GET with URL parameters, or POST
// with a JSON body) and checks the answer against the in-process one.
func (d *session) query(ctx context.Context, phase, method string, p *point, sched, due time.Time) *outcome {
	o := &outcome{class: "query", phase: phase, sched: sched}
	var wrongErr error
	defer func() { d.record(o, wrongErr, false) }()
	req := d.tr.newReq()
	root := d.tr.add(req, -1, "request.query", "request", sched, sched)
	d.traceWait(req, root, sched, due)
	route, path, body := "get_query", "/v1/query?type=threshold&eps1="+p.eps1+"&eps2="+p.eps2, []byte(nil)
	if method == http.MethodPost {
		route, path = "post_query", "/v1/query"
		body = []byte(`{"type":"threshold","params":{"eps1":` + p.eps1 + `,"eps2":` + p.eps2 + `}}`)
	}
	code, raw, _, _, err := d.roundTrip(ctx, route, method, path, body, due, req, root)
	o.done = time.Now()
	d.closeRoot(root, o.done)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("%s: status %d: %.200s", route, code, raw)
	}
	var q queryView
	if err == nil {
		err = json.Unmarshal(raw, &q)
	}
	if err != nil {
		o.err = err.Error()
		return o
	}
	o.ok = true
	if err := sameQuery(&q, p.want); err != nil {
		wrongErr = fmt.Errorf("eps1=%s eps2=%s: %w", p.eps1, p.eps2, err)
	}
	return o
}

// sleepUntil blocks until t. The runtime's timers wake up to a
// millisecond late on Linux, which would make the generator itself late
// on sub-millisecond schedules, so the wait is a nanosleep on the calling
// thread instead; it does not spin.
func sleepUntil(t time.Time) {
	for {
		w := time.Until(t)
		if w <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(w))
		syscall.Nanosleep(&ts, nil)
	}
}

// preciseWakeups pins the calling goroutine to its OS thread and sets the
// thread's timer slack to 1ns (it defaults to 50us), so sleepUntil wakes
// on time. The returned function undoes the pinning.
func preciseWakeups() func() {
	runtime.LockOSThread()
	const prSetTimerSlack = 29
	syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	return runtime.UnlockOSThread
}

// openLoop offers requests at a fixed rate for dur: request i is due at
// start + i/rate whatever the server did with the earlier ones. Each of
// the senders is one connection; a request waits for a free sender and
// that wait is billed to the request (it counts from sched), while the
// gap between a sender becoming free and actually sending is the
// generator's own lateness.
func openLoop(dur time.Duration, rate float64, senders int, fn func(i int, sched, due time.Time)) {
	start := time.Now()
	end := start.Add(dur)
	var next atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer preciseWakeups()()
			free := start
			for {
				i := int(next.Add(1) - 1)
				sched := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if !sched.Before(end) {
					return
				}
				due := sched
				if free.After(due) {
					due = free
				}
				fn(i, sched, due)
				free = time.Now()
			}
		}()
	}
	wg.Wait()
}

// closedLoop runs clients that each send their next request as soon as the
// previous one completes, until dur has passed; it returns the elapsed
// time.
func closedLoop(dur time.Duration, clients int, fn func(i int, now time.Time)) time.Duration {
	start := time.Now()
	end := start.Add(dur)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer preciseWakeups()()
			for {
				now := time.Now()
				if !now.Before(end) {
					return
				}
				fn(int(next.Add(1)-1), now)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}
