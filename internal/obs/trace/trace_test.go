package trace

import (
	"context"
	"strings"
	"sync"
	"testing"
)

func TestParseTraceparent(t *testing.T) {
	const valid = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	cases := []struct {
		name string
		in   string
		ok   bool
	}{
		{"valid", valid, true},
		{"valid unsampled", "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-00", true},
		{"surrounding whitespace", " " + valid + " ", true},
		{"future version", "01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", true},
		{"future version with suffix", "42-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-extra", true},
		{"empty", "", false},
		{"garbage", "not-a-traceparent", false},
		{"reserved version ff", "ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", false},
		{"malformed version", "0x-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", false},
		{"three-char version", "000-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", false},
		{"short trace id", "00-0af7651916cd43dd8448eb211c8031-b7ad6b7169203331-01", false},
		{"long trace id", "00-0af7651916cd43dd8448eb211c80319c00-b7ad6b7169203331-01", false},
		{"non-hex trace id", "00-0af7651916cd43dd8448eb211c80319z-b7ad6b7169203331-01", false},
		{"uppercase hex rejected", "00-0AF7651916CD43DD8448EB211C80319C-b7ad6b7169203331-01", false},
		{"short span id", "00-0af7651916cd43dd8448eb211c80319c-b7ad6b71692033-01", false},
		{"all-zero trace id", "00-00000000000000000000000000000000-b7ad6b7169203331-01", false},
		{"all-zero span id", "00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01", false},
		{"missing flags", "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331", false},
		{"version 00 with extra field", valid + "-zz", false},
		{"short flags", valid[:len(valid)-1], false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc, ok := ParseTraceparent(tc.in)
			if ok != tc.ok {
				t.Fatalf("ParseTraceparent(%q) ok = %v, want %v", tc.in, ok, tc.ok)
			}
			if !ok && sc.Valid() {
				t.Errorf("rejected input yielded a valid context: %+v", sc)
			}
			if ok && !sc.Valid() {
				t.Errorf("accepted input yielded an invalid context: %+v", sc)
			}
		})
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	const in = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	sc, ok := ParseTraceparent(in)
	if !ok {
		t.Fatal("valid header rejected")
	}
	if got := sc.Traceparent(); got != in {
		t.Errorf("round trip %q -> %q", in, got)
	}
	if sc.TraceID.String() != "0af7651916cd43dd8448eb211c80319c" {
		t.Errorf("trace id %q", sc.TraceID.String())
	}
	if sc.SpanID.String() != "b7ad6b7169203331" {
		t.Errorf("span id %q", sc.SpanID.String())
	}
	if (SpanContext{}).Traceparent() != "" {
		t.Error("zero context should render empty")
	}
}

func TestIDGeneration(t *testing.T) {
	seen := make(map[TraceID]bool)
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if id.IsZero() {
			t.Fatal("zero trace id generated")
		}
		if seen[id] {
			t.Fatalf("duplicate trace id after %d draws", i)
		}
		seen[id] = true
	}
	if len(NewSpanID().String()) != 16 {
		t.Error("span id hex length")
	}
}

func TestSpanParentChildAndExport(t *testing.T) {
	tr := New(16)
	root := tr.StartSpan("http.request", SpanContext{})
	child := tr.StartSpan("job.fbsm", root.Context())
	grand := tr.StartSpan("stage.fbsm/forward", child.Context())

	if child.Context().TraceID != root.Context().TraceID {
		t.Error("child left the parent's trace")
	}
	if grand.Context().TraceID != root.Context().TraceID {
		t.Error("grandchild left the parent's trace")
	}
	if child.Context().SpanID == root.Context().SpanID {
		t.Error("child reused the parent's span id")
	}
	grand.SetAttr("grid", "400000")
	grand.End()
	child.End()
	root.End()
	root.End() // double End is a no-op

	fin := tr.Finished()
	if len(fin) != 3 {
		t.Fatalf("finished spans = %d, want 3", len(fin))
	}
	if fin[0].Name != "stage.fbsm/forward" || fin[2].Name != "http.request" {
		t.Errorf("export order: %q, %q, %q", fin[0].Name, fin[1].Name, fin[2].Name)
	}
	if fin[0].ParentID != child.Context().SpanID.String() {
		t.Errorf("grandchild parent %q, want %q", fin[0].ParentID, child.Context().SpanID.String())
	}
	if fin[0].Attrs["grid"] != "400000" {
		t.Errorf("attrs: %v", fin[0].Attrs)
	}
	if fin[2].ParentID != "" {
		t.Errorf("root should have no parent, got %q", fin[2].ParentID)
	}
}

func TestTracerRingBound(t *testing.T) {
	tr := New(4)
	for i := 0; i < 10; i++ {
		tr.StartSpan("s", SpanContext{}).End()
	}
	if got := len(tr.Finished()); got != 4 {
		t.Errorf("retained spans = %d, want 4", got)
	}
	if tr.Dropped() != 6 {
		t.Errorf("dropped = %d, want 6", tr.Dropped())
	}
}

func TestNilSafety(t *testing.T) {
	var sp *Span
	sp.SetAttr("a", "b")
	sp.End()
	if sp.Context().Valid() {
		t.Error("nil span has a valid context")
	}
	var tr *Tracer
	if tr.Finished() != nil || tr.Dropped() != 0 {
		t.Error("nil tracer not inert")
	}
	if SpanContextFromContext(context.Background()).Valid() {
		t.Error("empty context carries a span")
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := New(64)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				sp := tr.StartSpan("concurrent", SpanContext{})
				sp.SetAttr("j", "1")
				sp.End()
			}
		}()
	}
	wg.Wait()
	fin := tr.Finished()
	if len(fin) != 64 {
		t.Fatalf("retained = %d, want the ring bound 64", len(fin))
	}
	for _, d := range fin {
		if !strings.HasPrefix(d.Name, "concurrent") || d.TraceID == "" {
			t.Fatalf("corrupt span data: %+v", d)
		}
	}
}
