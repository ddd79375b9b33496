package obs

import (
	"bufio"
	"flag"
	"os"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the expfmt golden file")

// goldenRegistry builds a registry with every metric type, labelled and
// unlabelled series, and label values that exercise the escaping rules.
func goldenRegistry() *Registry {
	r := NewRegistry()

	c := r.Counter("rumor_jobs_total", "Jobs submitted since start.", L("type", "ode"))
	c.Add(42)
	r.Counter("rumor_jobs_total", "Jobs submitted since start.", L("type", "fbsm")).Add(7)

	g := r.Gauge("rumor_queue_depth", "Jobs queued but not running.")
	g.Set(3)
	r.GaugeFunc("rumor_queue_capacity", "Bound of the job queue.", func() float64 { return 64 })

	esc := r.Counter("rumor_escapes_total", "Help with a backslash \\ and\nnewline.",
		L("path", `a\b"c`+"\n"))
	esc.Inc()

	h := r.Histogram("rumor_job_duration_seconds", "Execution latency.",
		[]float64{0.1, 0.5, 2.5}, L("type", "ode"))
	for _, v := range []float64{0.05, 0.1, 0.3, 1, 10} {
		h.Observe(v)
	}
	return r
}

func TestWritePrometheusGolden(t *testing.T) {
	var sb strings.Builder
	if err := goldenRegistry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()

	const path = "testdata/metrics.golden"
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/obs -update` to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("exposition drifted from golden file:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestExpositionWellFormed re-parses the golden output line by line: every
// sample line must be `name{labels} value` with a parseable value, buckets
// must be cumulative and end at +Inf == _count, and HELP/TYPE must precede
// their samples.
func TestExpositionWellFormed(t *testing.T) {
	var sb strings.Builder
	if err := goldenRegistry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}

	var (
		lastBucket   = map[string]int64{} // series prefix -> last cumulative count
		bucketFinal  = map[string]int64{} // +Inf value per histogram series
		countSamples = map[string]int64{}
		typed        = map[string]bool{}
	)
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			typed[parts[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("sample line without value: %q", line)
		}
		key, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil && valStr != "+Inf" {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		name := key
		if i := strings.IndexByte(key, '{'); i >= 0 {
			name = key[:i]
		}
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count", "_overflow_total"} {
			base = strings.TrimSuffix(base, suf)
		}
		if !typed[name] && !typed[base] {
			t.Errorf("sample %q before its TYPE line", line)
		}
		if strings.HasSuffix(name, "_bucket") {
			series := key[:strings.Index(key, "le=\"")]
			if int64(val) < lastBucket[series] {
				t.Errorf("bucket counts not cumulative at %q: %d after %d", line, int64(val), lastBucket[series])
			}
			lastBucket[series] = int64(val)
			if strings.Contains(key, `le="+Inf"`) {
				bucketFinal[series] = int64(val)
			}
		}
		if strings.HasSuffix(name, "_count") {
			countSamples[key] = int64(val)
		}
	}
	if len(bucketFinal) == 0 {
		t.Fatal("no histogram buckets found")
	}
	for series, inf := range bucketFinal {
		// The +Inf bucket must hold every observation, matching _count.
		if inf != 5 {
			t.Errorf("+Inf bucket of %s = %d, want 5 (all observations)", series, inf)
		}
	}
	if got := countSamples[`rumor_job_duration_seconds_count{type="ode"}`]; got != 5 {
		t.Errorf("_count = %d, want 5 (keys: %v)", got, countSamples)
	}
}

// TestHistogramOverflow verifies over-range observations are counted and
// exported instead of silently clamping into +Inf: the golden registry's
// histogram has explicit bounds up to 2.5 and observes a 10.
func TestHistogramOverflow(t *testing.T) {
	h := NewHistogram([]float64{0.1, 0.5, 2.5})
	for _, v := range []float64{0.05, 0.1, 0.3, 1, 10} {
		h.Observe(v)
	}
	overflow := func() int64 { return h.counts[len(h.upper)].Load() }
	if got := overflow(); got != 1 {
		t.Errorf("overflow = %d, want 1 (only the 10 is past the last bound)", got)
	}
	h.Observe(2.5) // exactly on the bound: le semantics, not an overflow
	if got := overflow(); got != 1 {
		t.Errorf("overflow after boundary observation = %d, want 1", got)
	}

	var sb strings.Builder
	if err := goldenRegistry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `rumor_job_duration_seconds_overflow_total{type="ode"} 1`
	if !strings.Contains(sb.String(), want+"\n") {
		t.Errorf("exposition missing %q:\n%s", want, sb.String())
	}
}
