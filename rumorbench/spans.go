package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req; the request's root span has Parent -1. Times are Unix
// nanoseconds, so server timestamps taken from job records (same host,
// same wall clock) sit on the same axis as the generator's own.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs skip the bookkeeping.
type tracer struct {
	mu    sync.Mutex
	spans []span
	reqs  int
}

// newReq returns a fresh request id.
func (t *tracer) newReq() int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	return t.reqs
}

// add records a span and returns its id (-1 on a nil tracer).
func (t *tracer) add(req, parent int, name, layer string, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Layer: layer,
		Start: start.UnixNano(), End: end.UnixNano()})
	return id
}

// write dumps every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes attributes every instant of each root span to exactly one span
// of its tree: the deepest span covering that instant, and among equally
// deep ones the one that started first (a server job still running owns
// the time over the client's poll wait that began later). For a tree
// whose siblings do not overlap this is a span's duration minus the part
// its children cover; where siblings do overlap, time is not counted
// twice, so the self times of one tree always sum to its root's duration.
// Instants outside the root are ignored.
func selfTimes(spans []span) map[int]int64 {
	byID := make(map[int]*span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	depth := func(s *span) int {
		d := 0
		for s.Parent >= 0 {
			p, ok := byID[s.Parent]
			if !ok {
				break
			}
			s = p
			d++
		}
		return d
	}
	trees := make(map[int][]*span) // root id -> members
	rootOf := func(s *span) int {
		for s.Parent >= 0 {
			p, ok := byID[s.Parent]
			if !ok {
				break
			}
			s = p
		}
		return s.ID
	}
	depths := make(map[int]int, len(spans))
	for i := range spans {
		s := &spans[i]
		root := rootOf(s)
		trees[root] = append(trees[root], s)
		depths[s.ID] = depth(s)
	}
	self := make(map[int]int64, len(spans))
	for rootID, members := range trees {
		root := byID[rootID]
		cuts := []int64{root.Start, root.End}
		for _, s := range members {
			for _, c := range []int64{s.Start, s.End} {
				if c > root.Start && c < root.End {
					cuts = append(cuts, c)
				}
			}
		}
		sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
		for i := 0; i+1 < len(cuts); i++ {
			a, b := cuts[i], cuts[i+1]
			if b <= a {
				continue
			}
			var best *span
			for _, s := range members {
				if s.Start > a || s.End < b {
					continue
				}
				if best == nil || depths[s.ID] > depths[best.ID] ||
					(depths[s.ID] == depths[best.ID] && s.Start < best.Start) {
					best = s
				}
			}
			self[best.ID] += b - a
		}
	}
	return self
}

// ladder summarises traced requests: the share of end-to-end time each
// layer accounts for as self time, and the residual — the share no layer
// span covers (the roots' own self time).
type ladder struct {
	Requests    int
	MeanE2EMS   float64
	SelfPct     map[string]float64
	ResidualPct float64
}

func buildLadder(spans []span) ladder {
	self := selfTimes(spans)
	var e2e, residual int64
	perLayer := make(map[string]int64)
	roots := 0
	for _, s := range spans {
		if s.Parent < 0 {
			roots++
			e2e += s.End - s.Start
			residual += self[s.ID]
			continue
		}
		perLayer[s.Layer] += self[s.ID]
	}
	l := ladder{Requests: roots, SelfPct: make(map[string]float64)}
	if e2e <= 0 {
		return l
	}
	l.MeanE2EMS = float64(e2e) / float64(roots) / 1e6
	for k, v := range perLayer {
		l.SelfPct[k] = 100 * float64(v) / float64(e2e)
	}
	l.ResidualPct = 100 * float64(residual) / float64(e2e)
	return l
}
