package obs

import (
	"io"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "jobs")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if again := r.Counter("jobs_total", "jobs"); again != c {
		t.Error("re-registration did not return the existing counter")
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth", "queue depth")
	g.Set(3)
	g.Inc()
	g.Dec()
	g.Add(-0.5)
	if got := g.Value(); got != 2.5 {
		t.Errorf("gauge = %g, want 2.5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 8} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 14 {
		t.Errorf("sum = %g, want 14", h.Sum())
	}
	if h.Max() != 8 {
		t.Errorf("max = %g, want 8", h.Max())
	}
	// le-semantics: 1.0 lands in the le="1" bucket.
	wantCounts := []int64{2, 1, 1, 1} // (≤1], (1,2], (2,4], +Inf
	for i, want := range wantCounts {
		if got := h.counts[i].Load(); got != want {
			t.Errorf("bucket %d count = %d, want %d", i, got, want)
		}
	}
}

func TestHistogramDefaultBuckets(t *testing.T) {
	h := NewHistogram(nil)
	if len(h.upper) != len(DefBuckets) {
		t.Fatalf("default buckets: %d, want %d", len(h.upper), len(DefBuckets))
	}
	h.Observe(math.Inf(1))
	if got := h.counts[len(h.upper)].Load(); got != 1 {
		t.Errorf("+Inf observation not in overflow bucket")
	}
}

func TestRegisterPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("ok_name", "")
	for name, fn := range map[string]func(){
		"bad metric name": func() { r.Counter("1bad", "") },
		"bad label name":  func() { r.Counter("ok2", "", L("le$", "x")) },
		"type conflict":   func() { r.Gauge("ok_name", "") },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		})
	}
}

// TestConcurrentScrape hammers every metric type from many goroutines
// while scrapes run concurrently; under -race (tier 2) this is the
// data-race gate for the registry, and it sanity-checks the final totals.
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits_total", "hits", L("kind", "a"))
	g := r.Gauge("temp", "gauge under churn")
	h := r.Histogram("lat_seconds", "latency", []float64{0.01, 0.1, 1}, L("op", "x"))
	r.GaugeFunc("derived", "computed at scrape", func() float64 { return float64(c.Value()) })

	const (
		writers = 8
		perG    = 2000
		scrapes = 50
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%100) / 100)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < scrapes; i++ {
			if err := r.WritePrometheus(io.Discard); err != nil {
				t.Errorf("scrape %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()

	if got := c.Value(); got != writers*perG {
		t.Errorf("counter = %d, want %d", got, writers*perG)
	}
	if got := h.Count(); got != writers*perG {
		t.Errorf("histogram count = %d, want %d", got, writers*perG)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `hits_total{kind="a"} 16000`) {
		t.Errorf("final scrape missing settled counter:\n%s", sb.String())
	}
}

// TestConcurrentFirstTouch is the get-or-create race gate: 100 goroutines
// register the same never-seen series and increment it once each. The
// instrument must be created under the registry lock, or two first users
// can each build one and one of them loses its increment. Repeated over
// fresh registries because the window is narrow.
func TestConcurrentFirstTouch(t *testing.T) {
	const (
		rounds     = 200
		goroutines = 100
	)
	for round := 0; round < rounds; round++ {
		r := NewRegistry()
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < goroutines; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				r.Counter("touch_total", "first-touch counter", L("k", "v")).Inc()
				r.Gauge("touch_gauge", "first-touch gauge").Add(1)
				r.Histogram("touch_seconds", "first-touch histogram", nil).Observe(1)
			}()
		}
		close(start)
		wg.Wait()
		if got := r.Counter("touch_total", "first-touch counter", L("k", "v")).Value(); got != goroutines {
			t.Fatalf("round %d: counter = %d, want %d", round, got, goroutines)
		}
		if got := r.Gauge("touch_gauge", "first-touch gauge").Value(); got != goroutines {
			t.Fatalf("round %d: gauge = %g, want %d", round, got, goroutines)
		}
		if got := r.Histogram("touch_seconds", "first-touch histogram", nil).Count(); got != goroutines {
			t.Fatalf("round %d: histogram count = %d, want %d", round, got, goroutines)
		}
	}
}

// TestValidateBuckets is the registration-time layout gate: non-monotonic,
// empty and non-finite bucket slices must be rejected with a clear error
// before any observation can be misbinned, while nil stays the DefBuckets
// shorthand.
func TestValidateBuckets(t *testing.T) {
	cases := []struct {
		name    string
		buckets []float64
		ok      bool
	}{
		{"nil selects defaults", nil, true},
		{"single bucket", []float64{1}, true},
		{"ascending", []float64{0.01, 0.1, 1, 10}, true},
		{"negative bounds ascending", []float64{-5, -1, 0, 2}, true},
		{"empty non-nil", []float64{}, false},
		{"descending", []float64{1, 0.1}, false},
		{"duplicate bound", []float64{1, 1, 2}, false},
		{"plateau mid-slice", []float64{0.1, 5, 5, 9}, false},
		{"explicit +Inf", []float64{1, 2, math.Inf(1)}, false},
		{"-Inf bound", []float64{math.Inf(-1), 0, 1}, false},
		{"NaN bound", []float64{1, math.NaN(), 3}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := ValidateBuckets(tc.buckets)
			if tc.ok && err != nil {
				t.Errorf("ValidateBuckets(%v) = %v, want nil", tc.buckets, err)
			}
			if !tc.ok && err == nil {
				t.Errorf("ValidateBuckets(%v) accepted a malformed layout", tc.buckets)
			}
		})
	}
}

func TestNewHistogramRejectsBadBuckets(t *testing.T) {
	for name, buckets := range map[string][]float64{
		"empty":        {},
		"non-monotone": {2, 1},
		"infinite":     {1, math.Inf(1)},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected a registration panic")
				}
			}()
			NewHistogram(buckets)
		})
	}
}
