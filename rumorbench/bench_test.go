package main

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"rumornet/internal/service"
)

func TestPercentileRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, err := percentile(xs, 0.90); err != nil || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	if _, err := percentile(xs, 0.99); err == nil {
		t.Fatal("p99 of 100 samples has 1 beyond it; want a refusal")
	}
	if _, err := percentile(xs[:19], 0.50); err == nil {
		t.Fatal("p50 of 19 samples has 9 beyond it; want a refusal")
	}
	if v, err := percentile(xs[:20], 0.50); err != nil || v != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
	m := newMetrics()
	m.pct("tail", "ms", xs[:50], 0.90, 1)
	if m.err == nil || !strings.Contains(m.err.Error(), "tail") {
		t.Fatalf("metrics.pct did not record the refusal: %v", m.err)
	}
}

func TestSlices(t *testing.T) {
	start := time.Unix(100, 0)
	ms := func(off time.Duration, lat float64) sample { return sample{start.Add(off), lat} }
	// 9.5 s cut into slices about 3 s wide: three slices of 3.1667 s.
	xs := []sample{ms(0, 1), ms(3*time.Second, 2), ms(4*time.Second, 3), ms(9400*time.Millisecond, 4),
		ms(-time.Millisecond, 5), ms(12*time.Second, 6)}
	sl, width := slices(xs, start, 9500*time.Millisecond, sentAt)
	if len(sl) != 3 || width != 9500*time.Millisecond/3 {
		t.Fatalf("%d slices of %v; want 3 of %v", len(sl), width, 9500*time.Millisecond/3)
	}
	want := [][]float64{{1, 2, 5}, {3}, {4, 6}} // outside the phase clamps to its ends
	for i := range want {
		if len(sl[i]) != len(want[i]) {
			t.Fatalf("slice %d = %v; want %v", i, sl[i], want[i])
		}
		for j := range want[i] {
			if sl[i][j] != want[i][j] {
				t.Fatalf("slice %d = %v; want %v", i, sl[i], want[i])
			}
		}
	}
	// By end time, the request sent at 3 s and answered 200 ms later
	// belongs to the second slice.
	if sl, _ := slices([]sample{ms(3*time.Second, 200)}, start, 9500*time.Millisecond, doneAt); len(sl[1]) != 1 {
		t.Fatalf("slices by end time = %v; want the request in slice 1", sl)
	}
	if sl, _ := slices(nil, start, time.Second, sentAt); len(sl) != 1 {
		t.Fatalf("a phase shorter than a slice gave %d slices; want 1", len(sl))
	}
}

// at builds a span from millisecond offsets.
func at(id, parent int, layer string, from, to int64) span {
	return span{ID: id, Parent: parent, Req: 1, Name: layer, Layer: layer,
		Start: from * int64(time.Millisecond), End: to * int64(time.Millisecond)}
}

func TestSelfTimeAndResidual(t *testing.T) {
	// root 0..100; http 0..10; a server job 5..90 with queue 5..20 and
	// execute 20..80 (serialize missing); a poll wait 10..95 overlapping
	// the job. The deepest span wins each instant, the earlier-starting
	// one among equals:
	//   0..5 http, 5..20 queue, 20..80 execute, 80..90 job self,
	//   90..95 poll, 95..100 root (residual).
	spans := []span{
		at(0, -1, "request", 0, 100),
		at(1, 0, "http", 0, 10),
		at(2, 0, "service", 5, 90),
		at(3, 2, "service.queue_wait", 5, 20),
		at(4, 2, "service.execute", 20, 80),
		at(5, 0, "poll", 10, 95),
	}
	self := selfTimes(spans)
	want := map[int]int64{0: 5, 1: 5, 2: 10, 3: 15, 4: 60, 5: 5}
	var sum int64
	for id, ms := range want {
		if got := self[id] / int64(time.Millisecond); got != ms {
			t.Errorf("self time of span %d = %d ms, want %d", id, got, ms)
		}
		sum += self[id]
	}
	if sum != 100*int64(time.Millisecond) {
		t.Errorf("self times sum to %v, want the root's 100ms", time.Duration(sum))
	}
	l := buildLadder(spans)
	if math.Abs(l.ResidualPct-5) > 1e-9 || math.Abs(l.SelfPct["service.execute"]-60) > 1e-9 {
		t.Errorf("ladder residual %.3f%% execute %.3f%%, want 5%% and 60%%", l.ResidualPct, l.SelfPct["service.execute"])
	}
	if l.MeanE2EMS != 100 || l.Requests != 1 {
		t.Errorf("ladder over %d requests, mean %v ms; want 1 and 100", l.Requests, l.MeanE2EMS)
	}
}

func TestCompareRefusesFingerprintMismatch(t *testing.T) {
	h := host{NProc: 2, GenGOMAXPROCS: 2, RumordGOMAXPROCS: 2, CPUModel: "cpu", Kernel: "k", GoVersion: "go1.24.0", Commit: "a"}
	a := record{Workload: "churn", Host: h, Result: result{Metrics: map[string]metric{"p50_ms": {1, "ms"}}}}
	b := a
	b.Host.Commit = "b"
	var out strings.Builder
	if err := compareRecords(&out, a, b); err != nil {
		t.Fatalf("same host, different commits: %v", err)
	}
	if !strings.Contains(out.String(), "p50_ms") {
		t.Errorf("comparison does not list p50_ms:\n%s", out.String())
	}
	b.Host.NProc = 8
	if err := compareRecords(&out, a, b); err == nil || !strings.Contains(err.Error(), "fingerprints differ") {
		t.Fatalf("different nproc compared: %v", err)
	}
	b.Host = h
	b.Host.RumordGOMAXPROCS = 1
	if err := compareRecords(&out, a, b); err == nil {
		t.Fatal("different rumord GOMAXPROCS compared")
	}
}

func TestAnswerMismatchDetected(t *testing.T) {
	if err := samePayload(json.RawMessage(`{"r0":1.6}`), json.RawMessage(`{"r0":1.6}`)); err != nil {
		t.Fatalf("equal payloads: %v", err)
	}
	if err := samePayload(json.RawMessage(`{"r0":1.6000000000000001}`), json.RawMessage(`{"r0":1.6}`)); err == nil {
		t.Fatal("differing payloads passed")
	}
	want := service.QueryResult{Source: "surface",
		Values:     map[string]float64{"r0": 1.25},
		ErrorBound: map[string]float64{"r0": 0.01}}
	got := &queryView{Source: "surface",
		Values:     map[string]float64{"r0": 1.25},
		ErrorBound: map[string]float64{"r0": 0.01}}
	if err := sameQuery(got, want); err != nil {
		t.Fatalf("equal answers: %v", err)
	}
	got.Values["r0"] = math.Nextafter(1.25, 2)
	if err := sameQuery(got, want); err == nil {
		t.Fatal("a value one ulp off passed")
	}
	got.Values["r0"] = 1.25
	got.Source = "job"
	if err := sameQuery(got, want); err == nil {
		t.Fatal("a fallback answer passed as a surface answer")
	}
}

// TestCheckFlagsWrongAnswers runs the post-run check over job answers with
// one payload corrupted and one cold request served from cache, and the
// inline hit check over hits that do and do not match their key's first
// cold result.
func TestCheckFlagsWrongAnswers(t *testing.T) {
	ref, err := newReference(1)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.close()
	good := thresholdBody(11)
	want, err := ref.expected(good)
	if err != nil {
		t.Fatal(err)
	}
	kept := []*outcome{
		{class: "cold", body: good, ok: true, job: &jobView{Result: want}},
		{class: "cold", body: thresholdBody(12), ok: true, job: &jobView{Result: json.RawMessage(`{"r0":0}`)}},
		{class: "cold", body: thresholdBody(13), ok: true, job: &jobView{Result: want, CacheHit: true}},
	}
	r := &runner{m: newMetrics(), ref: ref}
	if bad := r.check(kept); bad != 2 {
		t.Fatalf("%d wrong answers, want 2: %v", bad, r.wrong)
	}
	for i, wantOK := range []bool{true, false, false} {
		if kept[i].ok != wantOK {
			t.Errorf("outcome %d ok = %v, want %v (%s)", i, kept[i].ok, wantOK, kept[i].err)
		}
	}

	hot := jobBody("threshold", `"r0":1.6,"seed":99`)
	check := hitChecks([]*outcome{{class: "warm", body: hot, ok: true, job: &jobView{Result: want}}})[string(hot)]
	if check == nil {
		t.Fatal("no hit check for the warmed key")
	}
	if err := check(&jobView{Result: want, CacheHit: true}); err != nil {
		t.Errorf("matching hit: %v", err)
	}
	if err := check(&jobView{Result: json.RawMessage(`{}`), CacheHit: true}); err == nil {
		t.Error("a hit with other bytes passed")
	}
	if err := check(&jobView{Result: want}); err == nil {
		t.Error("a hot key recomputed instead of served from cache passed")
	}
}

func TestCanonicalMatchesService(t *testing.T) {
	// ExecuteRequest needs the defaults written out; canonical must write
	// exactly what Service.Submit resolves, or the suite times another job.
	ref, err := newReference(1)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.close()
	sc, err := ref.svc.Scenario(service.BuiltinScenario)
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range []service.Request{thresholdReq, odeReq} {
		raw, err := service.ExecuteRequest(context.Background(), sc, canonical(req), 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := json.Marshal(req)
		want, err := ref.expected(body)
		if err != nil {
			t.Fatal(err)
		}
		if err := samePayload(raw, want); err != nil {
			t.Errorf("%s: %v", req.Type, err)
		}
	}
}
