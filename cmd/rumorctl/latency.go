package main

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// latencySummary is the slice of a daemon's /metrics page the top
// dashboard renders: the queue-wait p99 computed client-side from the
// rumor_job_latency_segment_seconds bucket counts, and the saturation
// detector's verdict.
type latencySummary struct {
	ok         bool    // scrape succeeded and the segment histogram exists
	count      int64   // queue-wait observations
	p99        float64 // upper bound on the p99, seconds
	inOverflow bool    // the p99 rank landed past the last finite bucket
	saturated  bool    // rumor_saturated gauge
}

// fetchLatency scrapes addr's /metrics. Failures degrade to a zero
// summary — the dashboard's primary data is the worker registry, and a
// daemon that exports no segment series simply renders none.
func fetchLatency(addr string) latencySummary {
	resp, err := http.Get(strings.TrimSuffix(addr, "/") + "/metrics")
	if err != nil {
		return latencySummary{}
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return latencySummary{}
	}
	return parseLatency(string(raw))
}

func parseLatency(text string) latencySummary {
	var s latencySummary
	type bucket struct {
		le  float64
		cum int64
	}
	var buckets []bucket
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(line, "rumor_saturated "):
			s.saturated = strings.TrimSpace(strings.TrimPrefix(line, "rumor_saturated ")) != "0"
		case strings.HasPrefix(line, `rumor_job_latency_segment_seconds_bucket{`) &&
			strings.Contains(line, `segment="queue_wait"`):
			le, cum, ok := parseBucketLine(line)
			if ok {
				buckets = append(buckets, bucket{le, cum})
			}
		}
	}
	if len(buckets) == 0 {
		return s
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	total := buckets[len(buckets)-1].cum // the +Inf bucket holds the count
	s.ok = true
	s.count = total
	if total == 0 {
		return s
	}
	rank := int64(math.Ceil(0.99 * float64(total)))
	for _, b := range buckets {
		if b.cum >= rank {
			if math.IsInf(b.le, 1) {
				// Past the last finite bucket: report that bound and mark it.
				s.p99 = buckets[len(buckets)-2].le
				s.inOverflow = true
			} else {
				s.p99 = b.le
			}
			return s
		}
	}
	return s
}

// parseBucketLine pulls le and the cumulative count out of one exposition
// line like `rumor_job_latency_segment_seconds_bucket{segment="queue_wait",le="0.25"} 12`.
func parseBucketLine(line string) (le float64, cum int64, ok bool) {
	i := strings.Index(line, `le="`)
	if i < 0 {
		return 0, 0, false
	}
	rest := line[i+len(`le="`):]
	j := strings.IndexByte(rest, '"')
	if j < 0 {
		return 0, 0, false
	}
	le, err := strconv.ParseFloat(rest[:j], 64)
	if err != nil {
		return 0, 0, false
	}
	fields := strings.Fields(rest[j+1:])
	if len(fields) == 0 {
		return 0, 0, false
	}
	cum, err = strconv.ParseInt(fields[len(fields)-1], 10, 64)
	if err != nil {
		return 0, 0, false
	}
	return le, cum, true
}

// renderLatency writes the dashboard's latency line.
func renderLatency(out io.Writer, s latencySummary) {
	if !s.ok {
		fmt.Fprintln(out, "latency: no segment histograms (metrics unreachable or disabled)")
		return
	}
	if s.count == 0 {
		fmt.Fprintln(out, "latency: no jobs executed yet")
		return
	}
	bound := "<="
	if s.inOverflow {
		bound = ">"
	}
	line := fmt.Sprintf("latency: queue-wait p99 %s%s (%d jobs)", bound, fmtSeconds(s.p99), s.count)
	if s.saturated {
		line += "  [SATURATED]"
	}
	fmt.Fprintln(out, line)
}

// fmtSeconds renders a duration bound compactly: sub-second values in
// milliseconds, the rest in seconds.
func fmtSeconds(v float64) string {
	if v < 1 {
		return strconv.FormatFloat(v*1e3, 'g', 3, 64) + "ms"
	}
	return strconv.FormatFloat(v, 'g', 3, 64) + "s"
}
