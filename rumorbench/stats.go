package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie beyond it, so a tail is never read off one
// or two outliers.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of xs by nearest rank. It
// refuses, with an error, a percentile that fewer than minBeyond samples
// lie beyond.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	// The nearest rank; the epsilon keeps 0.9*100 from rounding up to 91.
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, the rule needs %d", q*100, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the middle value (mean of the two middle values for an even
// count); it is used for repeated measurements of one quantity, where the
// percentile rule does not apply. It returns 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// metrics collects named values in the order they were set, each with its
// unit, and remembers the first refusal so a run that cannot honestly
// report a number fails instead of printing a guess.
type metrics struct {
	names []string
	vals  map[string]metric
	err   error
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newMetrics() *metrics { return &metrics{vals: make(map[string]metric)} }

func (m *metrics) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		m.fail(fmt.Errorf("%s: not a finite number", name))
		return
	}
	if _, ok := m.vals[name]; !ok {
		m.names = append(m.names, name)
	}
	m.vals[name] = metric{Value: v, Unit: unit}
}

// pct sets name to the q-quantile of xs scaled by scale, or records the
// refusal.
func (m *metrics) pct(name, unit string, xs []float64, q, scale float64) {
	v, err := percentile(xs, q)
	if err != nil {
		m.fail(fmt.Errorf("%s: %w", name, err))
		return
	}
	m.set(name, unit, v*scale)
}

func (m *metrics) fail(err error) {
	if m.err == nil {
		m.err = err
	}
}

func (m *metrics) get(name string) float64 { return m.vals[name].Value }
