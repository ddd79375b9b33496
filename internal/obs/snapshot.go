package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
)

// This file is the registry snapshot/merge codec used by the cluster
// telemetry relay (DESIGN.md §13): a worker node serializes its registry
// into a compact JSON-able Snapshot, piggybacks it on heartbeats, and the
// coordinator re-renders the snapshot on its own /metrics under renamed
// families with a worker label — plus fleet-level aggregates merged
// across workers. The wire form is decoupled from the registry's internal
// types so the two processes only share this codec, not live metrics.

// HistogramSnapshot is the wire form of one histogram series: the bucket
// layout plus per-bucket (non-cumulative) counts, with the +Inf overflow
// bucket last, so the receiving side can re-render cumulative buckets or
// merge layouts bucket-by-bucket.
type HistogramSnapshot struct {
	Upper  []float64 `json:"upper"`
	Counts []int64   `json:"counts"` // len(Upper)+1; last is +Inf
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Max    float64   `json:"max"`
}

// SeriesSnapshot is one sampled series. Exactly one of Counter, Gauge or
// Histogram is set, matching the family type. Gauge-funcs are sampled at
// snapshot time and travel as plain gauges.
type SeriesSnapshot struct {
	Labels    []Label            `json:"labels,omitempty"`
	Counter   *int64             `json:"counter,omitempty"`
	Gauge     *float64           `json:"gauge,omitempty"`
	Histogram *HistogramSnapshot `json:"histogram,omitempty"`
}

// FamilySnapshot is one sampled metric family.
type FamilySnapshot struct {
	Name   string           `json:"name"`
	Help   string           `json:"help,omitempty"`
	Type   string           `json:"type"`
	Series []SeriesSnapshot `json:"series"`
}

// Snapshot is a point-in-time sample of a whole registry, families sorted
// by name and series by label signature (the same order WritePrometheus
// renders), so snapshots are byte-stable run to run.
type Snapshot []FamilySnapshot

// Snapshot samples every registered series. Values are read atomically
// per series; like a scrape, the whole snapshot is near-consistent rather
// than a single atomic cut.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.fams[name]
	}
	r.mu.Unlock()

	snap := make(Snapshot, 0, len(fams))
	for _, f := range fams {
		fs := FamilySnapshot{Name: f.name, Help: f.help, Type: f.typ}
		series := append([]*series(nil), f.series...)
		sort.Slice(series, func(i, j int) bool { return series[i].sig < series[j].sig })
		for _, s := range series {
			ss := SeriesSnapshot{Labels: append([]Label(nil), s.labels...)}
			switch {
			case s.c != nil:
				v := s.c.Value()
				ss.Counter = &v
			case s.gf != nil:
				v := s.gf()
				ss.Gauge = &v
			case s.g != nil:
				v := s.g.Value()
				ss.Gauge = &v
			case s.h != nil:
				hs := &HistogramSnapshot{
					Upper:  append([]float64(nil), s.h.upper...),
					Counts: make([]int64, len(s.h.counts)),
					Sum:    s.h.Sum(),
					Max:    s.h.Max(),
				}
				for i := range s.h.counts {
					hs.Counts[i] = s.h.counts[i].Load()
					hs.Count += hs.Counts[i]
				}
				ss.Histogram = hs
			default:
				continue // registered but never materialized; nothing to sample
			}
			fs.Series = append(fs.Series, ss)
		}
		if len(fs.Series) > 0 {
			snap = append(snap, fs)
		}
	}
	return snap
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format. rename (nil for identity) maps each family name — the
// coordinator uses it to re-export a worker's rumor_* families as
// rumor_worker_*. extra labels are appended to every series — the
// coordinator attaches worker="<id>". The caller interleaves this with a
// live registry render, so HELP/TYPE dedup across calls is the caller's
// concern; within one snapshot each family emits its pair once.
func (snap Snapshot) WritePrometheus(w io.Writer, rename func(string) string, extra ...Label) error {
	bw := bufio.NewWriter(w)
	writef := func(format string, args ...any) {
		fmt.Fprintf(bw, format, args...)
	}
	for _, f := range snap {
		name := f.Name
		if rename != nil {
			name = rename(name)
		}
		if err := checkName(name); err != nil {
			continue // a hostile or corrupt relay must not break the scrape
		}
		if f.Help != "" {
			writef("# HELP %s %s\n", name, escapeHelp(f.Help))
		}
		writef("# TYPE %s %s\n", name, f.Type)
		for _, s := range f.Series {
			labels := mergeLabels(s.Labels, extra)
			switch {
			case s.Counter != nil:
				writef("%s%s %d\n", name, labelString(labels, nil), *s.Counter)
			case s.Gauge != nil:
				writef("%s%s %s\n", name, labelString(labels, nil), formatFloat(*s.Gauge))
			case s.Histogram != nil && len(s.Histogram.Counts) == len(s.Histogram.Upper)+1:
				var cum int64
				for i, upper := range s.Histogram.Upper {
					cum += s.Histogram.Counts[i]
					le := Label{Name: "le", Value: formatFloat(upper)}
					writef("%s_bucket%s %d\n", name, labelString(labels, &le), cum)
				}
				cum += s.Histogram.Counts[len(s.Histogram.Upper)]
				le := Label{Name: "le", Value: "+Inf"}
				writef("%s_bucket%s %d\n", name, labelString(labels, &le), cum)
				writef("%s_sum%s %s\n", name, labelString(labels, nil), formatFloat(s.Histogram.Sum))
				writef("%s_count%s %d\n", name, labelString(labels, nil), cum)
				// Companion counter: observations above the last explicit
				// bound. Silent clamping into +Inf hides a bucket layout
				// that no longer covers the distribution; this makes it
				// alertable.
				writef("%s_overflow_total%s %d\n", name, labelString(labels, nil),
					s.Histogram.Counts[len(s.Histogram.Upper)])
			}
		}
	}
	return bw.Flush()
}

// WithLabel returns a deep-enough copy of the snapshot with extra appended
// to every series' label set (series that already carry a label of the
// same name keep their own value). The coordinator uses it to stamp each
// worker's snapshot with worker="<id>" before merging the fleet into one
// rendering.
func (snap Snapshot) WithLabel(extra ...Label) Snapshot {
	out := make(Snapshot, len(snap))
	for i, f := range snap {
		nf := FamilySnapshot{Name: f.Name, Help: f.Help, Type: f.Type,
			Series: make([]SeriesSnapshot, len(f.Series))}
		for j, s := range f.Series {
			ns := cloneSeries(s)
			ns.Labels = mergeLabels(ns.Labels, extra)
			nf.Series[j] = ns
		}
		out[i] = nf
	}
	return out
}

// mergeLabels appends extra after the series' own labels, skipping extras
// whose name a series label already uses (the series' value wins — a
// worker must not spoof the coordinator-assigned worker label).
func mergeLabels(own, extra []Label) []Label {
	if len(extra) == 0 {
		return own
	}
	out := append([]Label(nil), own...)
next:
	for _, e := range extra {
		for _, l := range own {
			if l.Name == e.Name {
				continue next
			}
		}
		out = append(out, e)
	}
	return out
}

// MergeSnapshots folds snapshots from several processes into fleet-level
// aggregates: counters and gauges sum, histogram buckets add
// element-wise when the layouts match (series with mismatched layouts are
// skipped), and Max takes the max. Series are merged by family name plus
// label signature; families must agree on type or the later snapshot's
// family is skipped. Gauges sum because the fleet aggregate of
// goroutines, heap bytes or queue depths is a total, not an average —
// per-worker values stay visible on the re-exported rumor_worker_* form.
func MergeSnapshots(snaps ...Snapshot) Snapshot {
	type key struct {
		fam string
		sig string
	}
	fams := make(map[string]*FamilySnapshot)
	order := make([]string, 0)
	idx := make(map[key]int) // index into fams[fam].Series
	for _, snap := range snaps {
		for _, f := range snap {
			mf := fams[f.Name]
			if mf == nil {
				fams[f.Name] = &FamilySnapshot{Name: f.Name, Help: f.Help, Type: f.Type}
				mf = fams[f.Name]
				order = append(order, f.Name)
			} else if mf.Type != f.Type {
				continue
			}
			for _, s := range f.Series {
				k := key{fam: f.Name, sig: labelSignature(s.Labels)}
				i, ok := idx[k]
				if !ok {
					idx[k] = len(mf.Series)
					mf.Series = append(mf.Series, cloneSeries(s))
					continue
				}
				mergeSeries(&mf.Series[i], s)
			}
		}
	}
	sort.Strings(order)
	out := make(Snapshot, 0, len(order))
	for _, name := range order {
		out = append(out, *fams[name])
	}
	return out
}

func cloneSeries(s SeriesSnapshot) SeriesSnapshot {
	out := SeriesSnapshot{Labels: append([]Label(nil), s.Labels...)}
	switch {
	case s.Counter != nil:
		v := *s.Counter
		out.Counter = &v
	case s.Gauge != nil:
		v := *s.Gauge
		out.Gauge = &v
	case s.Histogram != nil:
		h := *s.Histogram
		h.Upper = append([]float64(nil), s.Histogram.Upper...)
		h.Counts = append([]int64(nil), s.Histogram.Counts...)
		out.Histogram = &h
	}
	return out
}

func mergeSeries(dst *SeriesSnapshot, src SeriesSnapshot) {
	switch {
	case dst.Counter != nil && src.Counter != nil:
		*dst.Counter += *src.Counter
	case dst.Gauge != nil && src.Gauge != nil:
		*dst.Gauge += *src.Gauge
	case dst.Histogram != nil && src.Histogram != nil:
		d, s := dst.Histogram, src.Histogram
		if len(d.Upper) != len(s.Upper) || len(d.Counts) != len(s.Counts) {
			return
		}
		for i, u := range d.Upper {
			if u != s.Upper[i] {
				return
			}
		}
		for i := range d.Counts {
			d.Counts[i] += s.Counts[i]
		}
		d.Count += s.Count
		d.Sum += s.Sum
		if s.Max > d.Max {
			d.Max = s.Max
		}
	}
}
