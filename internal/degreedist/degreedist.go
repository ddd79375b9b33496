// Package degreedist represents the degree-group structure at the heart of
// the paper's heterogeneous SIR model: users are partitioned into n groups
// by social connectivity k_i, with group probabilities P(k_i). It also
// provides the paper's acceptance-rate λ(k) and infectivity ω(k) families
// (Section III, Table I).
package degreedist

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"rumornet/internal/graph"
)

// Dist is a discrete degree distribution: sorted distinct degrees Ks (the
// paper's n groups) with probabilities P summing to one. Construct with one
// of the From/TruncatedPowerLaw constructors; the zero value is not usable.
type Dist struct {
	ks []int
	p  []float64
}

// ErrEmpty is returned when a distribution would have no groups.
var ErrEmpty = errors.New("degreedist: empty distribution")

// FromSequence builds the empirical distribution of a degree sequence.
// Degrees must be non-negative; zero-degree nodes are dropped (they cannot
// receive or spread a rumor and do not participate in the mean field).
func FromSequence(degrees []int) (*Dist, error) {
	hist := make(map[int]int)
	total := 0
	for _, k := range degrees {
		if k < 0 {
			return nil, fmt.Errorf("degreedist: negative degree %d", k)
		}
		if k == 0 {
			continue
		}
		hist[k]++
		total++
	}
	if total == 0 {
		return nil, ErrEmpty
	}
	ks := make([]int, 0, len(hist))
	for k := range hist {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	p := make([]float64, len(ks))
	for i, k := range ks {
		p[i] = float64(hist[k]) / float64(total)
	}
	return &Dist{ks: ks, p: p}, nil
}

// FromGraph builds the empirical out-degree distribution of g.
func FromGraph(g *graph.Graph) (*Dist, error) {
	return FromSequence(g.OutDegrees())
}

// TruncatedPowerLaw builds the analytic distribution P(k) ∝ k^-gamma on
// [kmin, kmax].
func TruncatedPowerLaw(gamma float64, kmin, kmax int) (*Dist, error) {
	if kmin < 1 || kmax < kmin {
		return nil, fmt.Errorf("degreedist: invalid range [%d, %d]", kmin, kmax)
	}
	if gamma <= 0 {
		return nil, fmt.Errorf("degreedist: gamma must be positive, got %g", gamma)
	}
	n := kmax - kmin + 1
	ks := make([]int, n)
	p := make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		ks[i] = kmin + i
		p[i] = math.Pow(float64(ks[i]), -gamma)
		total += p[i]
	}
	for i := range p {
		p[i] /= total
	}
	return &Dist{ks: ks, p: p}, nil
}

// New builds a distribution from an explicit degree table: distinct degrees
// ks (in any order) with non-negative weights p that are renormalized to sum
// to one. This is the constructor behind uploaded P(k) scenarios in the
// rumord service: operators POST a degree table and get back a first-class
// scenario. Zero-weight groups are dropped (they contribute nothing to the
// mean field).
func New(ks []int, p []float64) (*Dist, error) {
	if len(ks) == 0 {
		return nil, ErrEmpty
	}
	if len(ks) != len(p) {
		return nil, fmt.Errorf("degreedist: %d degrees vs %d probabilities", len(ks), len(p))
	}
	type pair struct {
		k int
		p float64
	}
	pairs := make([]pair, 0, len(ks))
	var total float64
	for i, k := range ks {
		if k < 1 {
			return nil, fmt.Errorf("degreedist: degree %d < 1", k)
		}
		if math.IsNaN(p[i]) || math.IsInf(p[i], 0) || p[i] < 0 {
			return nil, fmt.Errorf("degreedist: invalid probability %g for degree %d", p[i], k)
		}
		if p[i] == 0 {
			continue
		}
		pairs = append(pairs, pair{k: k, p: p[i]})
		total += p[i]
	}
	if len(pairs) == 0 || total <= 0 {
		return nil, fmt.Errorf("degreedist: no positive-probability groups: %w", ErrEmpty)
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	d := &Dist{ks: make([]int, len(pairs)), p: make([]float64, len(pairs))}
	for i, pr := range pairs {
		if i > 0 && pairs[i-1].k == pr.k {
			return nil, fmt.Errorf("degreedist: duplicate degree %d", pr.k)
		}
		d.ks[i] = pr.k
		d.p[i] = pr.p / total
	}
	return d, nil
}

// Uniform builds the uniform distribution over the given distinct degrees.
func Uniform(ks []int) (*Dist, error) {
	if len(ks) == 0 {
		return nil, ErrEmpty
	}
	sorted := append([]int(nil), ks...)
	sort.Ints(sorted)
	for i, k := range sorted {
		if k < 1 {
			return nil, fmt.Errorf("degreedist: degree %d < 1", k)
		}
		if i > 0 && sorted[i-1] == k {
			return nil, fmt.Errorf("degreedist: duplicate degree %d", k)
		}
	}
	p := make([]float64, len(sorted))
	for i := range p {
		p[i] = 1 / float64(len(sorted))
	}
	return &Dist{ks: sorted, p: p}, nil
}

// N returns the number of degree groups (the paper's n).
func (d *Dist) N() int { return len(d.ks) }

// Degree returns the degree k_i of group i.
func (d *Dist) Degree(i int) int { return d.ks[i] }

// Prob returns P(k_i) of group i.
func (d *Dist) Prob(i int) float64 { return d.p[i] }

// Degrees returns a copy of the sorted distinct degrees.
func (d *Dist) Degrees() []int { return append([]int(nil), d.ks...) }

// Probs returns a copy of the group probabilities.
func (d *Dist) Probs() []float64 { return append([]float64(nil), d.p...) }

// MeanDegree returns ⟨k⟩ = Σ k_i P(k_i).
func (d *Dist) MeanDegree() float64 {
	var m float64
	for i, k := range d.ks {
		m += float64(k) * d.p[i]
	}
	return m
}

// Moment returns E[f(k)] = Σ f(k_i) P(k_i).
func (d *Dist) Moment(f func(k float64) float64) float64 {
	var m float64
	for i, k := range d.ks {
		m += f(float64(k)) * d.p[i]
	}
	return m
}

// MaxDegree returns the largest degree in the support.
func (d *Dist) MaxDegree() int { return d.ks[len(d.ks)-1] }

// MinDegree returns the smallest degree in the support.
func (d *Dist) MinDegree() int { return d.ks[0] }

// Truncate returns a new distribution keeping only the first maxGroups
// lowest-degree groups, renormalized. It returns the receiver if it already
// has at most maxGroups groups. The paper's Fig. 3 uses the 20 lowest
// groups of the Digg distribution.
func (d *Dist) Truncate(maxGroups int) (*Dist, error) {
	if maxGroups < 1 {
		return nil, fmt.Errorf("degreedist: Truncate needs maxGroups >= 1, got %d", maxGroups)
	}
	if maxGroups >= len(d.ks) {
		return d, nil
	}
	ks := append([]int(nil), d.ks[:maxGroups]...)
	p := append([]float64(nil), d.p[:maxGroups]...)
	var total float64
	for _, v := range p {
		total += v
	}
	if total <= 0 {
		return nil, ErrEmpty
	}
	for i := range p {
		p[i] /= total
	}
	return &Dist{ks: ks, p: p}, nil
}

// SampleDegrees draws an n-node out-degree sequence from the distribution
// by inverse-CDF sampling, consuming exactly one rng.Float64 per node in
// node order — the realisation an agent-based run builds its
// configuration-model graph from.
func (d *Dist) SampleDegrees(n int, rng *rand.Rand) []int {
	cdf := make([]float64, len(d.p))
	var cum float64
	for i, p := range d.p {
		cum += p
		cdf[i] = cum
	}
	seq := make([]int, n)
	for i := range seq {
		g := sort.SearchFloat64s(cdf, rng.Float64())
		if g >= len(d.ks) {
			g = len(d.ks) - 1
		}
		seq[i] = d.ks[g]
	}
	return seq
}

// Validate checks the structural invariants: sorted distinct degrees ≥ 1
// and probabilities in (0, 1] summing to 1 within tolerance.
func (d *Dist) Validate() error {
	if len(d.ks) == 0 {
		return ErrEmpty
	}
	if len(d.ks) != len(d.p) {
		return fmt.Errorf("degreedist: %d degrees vs %d probabilities", len(d.ks), len(d.p))
	}
	var total float64
	for i, k := range d.ks {
		if k < 1 {
			return fmt.Errorf("degreedist: degree %d < 1 at group %d", k, i)
		}
		if i > 0 && d.ks[i-1] >= k {
			return fmt.Errorf("degreedist: degrees not strictly increasing at group %d", i)
		}
		if d.p[i] <= 0 || d.p[i] > 1 {
			return fmt.Errorf("degreedist: probability %g out of (0,1] at group %d", d.p[i], i)
		}
		total += d.p[i]
	}
	if math.Abs(total-1) > 1e-9 {
		return fmt.Errorf("degreedist: probabilities sum to %g, want 1", total)
	}
	return nil
}
