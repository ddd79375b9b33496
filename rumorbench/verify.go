package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"time"

	"rumornet/internal/service"
)

// The query surface: threshold r0 and required controls over eps1 x eps2
// on digg2009, 4 x 4 over the hull internal/loadgen documents and builds
// (loadgen.Generator.BuildQuerySurface). The generator samples queries
// strictly inside it.
var (
	hullEps1 = [2]float64{0.10, 0.40}
	hullEps2 = [2]float64{0.02, 0.10}
)

const hullPoints = 4

func querySweep() service.SweepSpec {
	return service.SweepSpec{
		Type: service.JobThreshold,
		Axes: []service.SweepAxis{
			{Name: "eps1", Min: hullEps1[0], Max: hullEps1[1], Points: hullPoints},
			{Name: "eps2", Min: hullEps2[0], Max: hullEps2[1], Points: hullPoints},
		},
	}
}

// reference is an in-process service answering the same requests rumord
// was sent, for byte-for-byte comparison. Executors that never read the
// seed (fbsm, ode, threshold) are computed once per request with the seed
// removed, so a run's thousands of cold threshold jobs cost one
// reference execution; abm results depend on the seed and are computed
// for every request.
type reference struct {
	svc  *service.Service
	memo map[string]json.RawMessage
}

func newReference(innerWorkers int) (*reference, error) {
	svc, err := service.New(service.Config{Workers: 2, InnerWorkers: innerWorkers, CacheEntries: -1})
	if err != nil {
		return nil, fmt.Errorf("reference service: %w", err)
	}
	return &reference{svc: svc, memo: make(map[string]json.RawMessage)}, nil
}

func (ref *reference) close() { ref.svc.Close() }

// expected returns the payload the in-process service computes for body.
func (ref *reference) expected(body []byte) (json.RawMessage, error) {
	var req service.Request
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, fmt.Errorf("reference: decode request: %w", err)
	}
	key := memoKey(req)
	if raw, ok := ref.memo[key]; ok {
		return raw, nil
	}
	raw, err := submitWait(ref.svc, req)
	if err != nil {
		return nil, err
	}
	ref.memo[key] = raw
	return raw, nil
}

func memoKey(req service.Request) string {
	if req.Type != service.JobABM {
		req.Params.Seed = 0
	}
	b, _ := json.Marshal(req)
	return string(b)
}

// submitWait submits req in-process and waits for its result.
func submitWait(svc *service.Service, req service.Request) (json.RawMessage, error) {
	job, err := svc.Submit(req)
	if err != nil {
		return nil, fmt.Errorf("in-process submit: %w", err)
	}
	for !job.Status.Terminal() {
		time.Sleep(50 * time.Microsecond)
		var ok bool
		if job, ok = svc.Job(job.ID); !ok {
			return nil, fmt.Errorf("in-process job %s vanished", job.ID)
		}
	}
	if job.Status != service.StatusSucceeded {
		return nil, fmt.Errorf("in-process job %s %s: %s", job.ID, job.Status, job.Error)
	}
	return job.Result, nil
}

// waitSurface builds the query surface in svc and waits until it is ready.
func waitSurface(ctx context.Context, svc *service.Service) error {
	info, err := svc.BuildSurface(querySweep())
	if err != nil {
		return fmt.Errorf("in-process surface: %w", err)
	}
	for info.Status == "building" {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
		info, _ = svc.Surface(info.Key)
	}
	if info.Status != "ready" {
		return fmt.Errorf("in-process surface %s: %s", info.Status, info.Error)
	}
	return nil
}

// samePayload is the job-answer check: rumord's payload must equal the
// reference bytes exactly.
func samePayload(got, want json.RawMessage) error {
	if bytes.Equal(got, want) {
		return nil
	}
	return fmt.Errorf("payload differs from the in-process result (%d vs %d bytes): %.120s", len(got), len(want), got)
}

// sameQuery is the surface-answer check: the source, every interpolated
// value and every error bound must equal the in-process answer.
func sameQuery(got *queryView, want service.QueryResult) error {
	if got.Source != want.Source {
		return fmt.Errorf("query answered from %q, in-process from %q", got.Source, want.Source)
	}
	if err := sameFloats("value", got.Values, want.Values); err != nil {
		return err
	}
	return sameFloats("error bound", got.ErrorBound, want.ErrorBound)
}

func sameFloats(what string, got, want map[string]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("query has %d %ss, in-process %d", len(got), what, len(want))
	}
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			return fmt.Errorf("query %s %s = %v, in-process %v", what, k, g, w)
		}
	}
	return nil
}

// queryOf is the in-process form of a query sent with these coordinates.
func queryOf(e1, e2 string) (service.Query, error) {
	eps1, err1 := strconv.ParseFloat(e1, 64)
	eps2, err2 := strconv.ParseFloat(e2, 64)
	if err1 != nil || err2 != nil {
		return service.Query{}, fmt.Errorf("bad query coordinates %q %q", e1, e2)
	}
	return service.Query{Type: service.JobThreshold, Params: service.Params{Eps1: eps1, Eps2: eps2}}, nil
}

// boundRatio is |interpolated - exact| / bound, the share of its own
// error bound an answer used; a zero bound with a nonzero error is +Inf.
func boundRatio(interp, exact, bound float64) float64 {
	d := math.Abs(interp - exact)
	if d == 0 {
		return 0
	}
	return d / bound
}
