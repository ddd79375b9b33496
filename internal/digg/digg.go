// Package digg provides the evaluation substrate of the paper: the Digg2009
// social news dataset ("Digg2009 datasite", collected by Lerman et al.).
//
// The original dump is no longer distributed, so this package offers two
// interchangeable sources (see DESIGN.md, substitution table):
//
//   - LoadFriendsCSV / graph.ReadEdgeList for users who have the original
//     files;
//   - Generate, a synthetic generator calibrated so that every statistic
//     the paper reports about Digg2009 is matched: 71,367 users, 1,731,658
//     friendship links, degree range [1, 995], average degree ≈ 24 and
//     ≈ 848 distinct degree groups.
//
// The mean-field model consumes only the degree distribution, so matching
// the published degree statistics reproduces the same group structure the
// paper simulated on.
package digg

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"rumornet/internal/degreedist"
	"rumornet/internal/graph"
)

// Published Digg2009 statistics from Section V of the paper.
const (
	PaperUsers      = 71367
	PaperLinks      = 1731658
	PaperGroups     = 848
	PaperMaxDegree  = 995
	PaperMinDegree  = 1
	PaperMeanDegree = 24.0
)

// Stats summarizes a Digg-like graph with the quantities the paper reports.
type Stats struct {
	Users         int
	Links         int
	Groups        int // distinct out-degree values
	MinDegree     int
	MaxDegree     int
	MeanDegree    float64
	PowerLawGamma float64 // MLE exponent of the out-degree tail (kmin=6)
	LargestWCC    int
}

// Summarize computes Stats for g.
func Summarize(g *graph.Graph) Stats {
	degs := g.OutDegrees()
	min := math.MaxInt
	for _, d := range degs {
		if d > 0 && d < min {
			min = d
		}
	}
	if min == math.MaxInt {
		min = 0
	}
	gamma, _, err := fitGamma(degs, 6)
	if err != nil {
		gamma = math.NaN()
	}
	_, largest := g.WeaklyConnectedComponents()
	return Stats{
		Users:         g.NumNodes(),
		Links:         g.NumEdges(),
		Groups:        g.DistinctOutDegrees(),
		MinDegree:     min,
		MaxDegree:     g.MaxDegree(),
		MeanDegree:    g.MeanOutDegree(),
		PowerLawGamma: gamma,
		LargestWCC:    largest,
	}
}

// MatchesPaper reports whether s is consistent with the published Digg2009
// statistics within loose tolerances (the generator is stochastic), and
// describes the first mismatch otherwise.
func (s Stats) MatchesPaper() (bool, string) {
	switch {
	case s.Users != PaperUsers:
		return false, fmt.Sprintf("users = %d, want %d", s.Users, PaperUsers)
	case math.Abs(float64(s.Links)-PaperLinks) > 0.05*PaperLinks:
		return false, fmt.Sprintf("links = %d, want %d ±5%%", s.Links, PaperLinks)
	case s.MaxDegree != PaperMaxDegree:
		return false, fmt.Sprintf("max degree = %d, want %d", s.MaxDegree, PaperMaxDegree)
	case s.MinDegree != PaperMinDegree:
		return false, fmt.Sprintf("min degree = %d, want %d", s.MinDegree, PaperMinDegree)
	case math.Abs(s.MeanDegree-PaperMeanDegree) > 2:
		return false, fmt.Sprintf("mean degree = %.2f, want ≈%.0f", s.MeanDegree, PaperMeanDegree)
	case math.Abs(float64(s.Groups)-PaperGroups) > 0.15*PaperGroups:
		return false, fmt.Sprintf("degree groups = %d, want %d ±15%%", s.Groups, PaperGroups)
	}
	return true, ""
}

func (s Stats) String() string {
	return fmt.Sprintf(
		"users=%d links=%d groups=%d degree=[%d,%d] mean=%.2f gamma=%.2f largestWCC=%d",
		s.Users, s.Links, s.Groups, s.MinDegree, s.MaxDegree, s.MeanDegree,
		s.PowerLawGamma, s.LargestWCC)
}

// CalibrateGamma finds the truncated-power-law exponent whose mean degree on
// [kmin, kmax] equals targetMean, by bisection. The mean is strictly
// decreasing in gamma, so the root is unique.
func CalibrateGamma(targetMean float64, kmin, kmax int) (float64, error) {
	if kmin < 1 || kmax <= kmin {
		return 0, fmt.Errorf("digg: invalid degree range [%d, %d]", kmin, kmax)
	}
	mean := func(gamma float64) (float64, error) {
		d, err := degreedist.TruncatedPowerLaw(gamma, kmin, kmax)
		if err != nil {
			return 0, err
		}
		return d.MeanDegree(), nil
	}
	lo, hi := 0.05, 6.0 // mean(lo) is large, mean(hi) ≈ kmin
	mLo, err := mean(lo)
	if err != nil {
		return 0, err
	}
	mHi, err := mean(hi)
	if err != nil {
		return 0, err
	}
	if targetMean > mLo || targetMean < mHi {
		return 0, fmt.Errorf("digg: target mean %.2f outside achievable [%.2f, %.2f]",
			targetMean, mHi, mLo)
	}
	for iter := 0; iter < 200 && hi-lo > 1e-12; iter++ {
		mid := (lo + hi) / 2
		m, err := mean(mid)
		if err != nil {
			return 0, err
		}
		if m > targetMean {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// SampleDegreeSequence draws n out-degrees from the calibrated truncated
// power law and pins the extremes so the published support [1, kmax] is
// realized exactly: at least one node of degree kmax and one of degree 1.
func SampleDegreeSequence(n int, rng *rand.Rand) ([]int, error) {
	if n < 2 {
		return nil, fmt.Errorf("digg: need n >= 2 nodes, got %d", n)
	}
	gamma, err := CalibrateGamma(PaperMeanDegree, PaperMinDegree, PaperMaxDegree)
	if err != nil {
		return nil, err
	}
	seq, err := graph.PowerLawDegreeSequence(n, gamma, PaperMinDegree, PaperMaxDegree, rng)
	if err != nil {
		return nil, err
	}
	seq[0] = PaperMaxDegree
	seq[1] = PaperMinDegree
	return seq, nil
}

// Generate builds a synthetic Digg2009-scale directed follower graph with
// the published statistics. The graph is a configuration-model realization
// of the calibrated degree sequence, so its out-degree distribution — the
// only input the mean-field model uses — matches the published one.
func Generate(rng *rand.Rand) (*graph.Graph, error) {
	seq, err := SampleDegreeSequence(PaperUsers, rng)
	if err != nil {
		return nil, err
	}
	g, err := graph.ConfigurationModel(seq, rng)
	if err != nil {
		return nil, fmt.Errorf("digg: realize degree sequence: %w", err)
	}
	return g, nil
}

// Dist returns the degree distribution of a synthetic Digg2009 network
// without materializing the graph — sufficient (and fast) for the ODE
// experiments, which consume only P(k).
func Dist(rng *rand.Rand) (*degreedist.Dist, error) {
	seq, err := SampleDegreeSequence(PaperUsers, rng)
	if err != nil {
		return nil, err
	}
	d, err := degreedist.FromSequence(seq)
	if err != nil {
		return nil, fmt.Errorf("digg: build distribution: %w", err)
	}
	return d, nil
}

// LoadFriendsCSV parses the original Digg2009 "digg_friends.csv" format:
// one record per line, comma separated, with fields
//
//	mutual, friend_date, user_id, friend_id
//
// A directed edge friend_id → user_id is added (the follower relation:
// a user's votes propagate to those who follow them), plus the reverse edge
// when mutual is 1. Lines starting with '#' or a non-numeric header are
// skipped. Node ids are remapped densely; the mapping is returned.
func LoadFriendsCSV(r io.Reader) (*graph.Graph, []int64, error) {
	type edge struct {
		u, v   int
		mutual bool
	}
	var (
		edges []edge
		ids   []int64
	)
	remap := make(map[int64]int)
	dense := func(raw int64) int {
		if id, ok := remap[raw]; ok {
			return id
		}
		id := len(ids)
		remap[raw] = id
		ids = append(ids, raw)
		return id
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Split(text, ",")
		if len(fields) != 4 {
			return nil, nil, fmt.Errorf("digg: line %d: want 4 CSV fields, got %d", line, len(fields))
		}
		mutual, err := strconv.Atoi(strings.TrimSpace(fields[0]))
		if err != nil {
			if line == 1 {
				continue // header row
			}
			return nil, nil, fmt.Errorf("digg: line %d: bad mutual flag: %w", line, err)
		}
		user, err := strconv.ParseInt(strings.TrimSpace(fields[2]), 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("digg: line %d: bad user id: %w", line, err)
		}
		friend, err := strconv.ParseInt(strings.TrimSpace(fields[3]), 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("digg: line %d: bad friend id: %w", line, err)
		}
		edges = append(edges, edge{dense(friend), dense(user), mutual == 1})
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("digg: scan friends csv: %w", err)
	}

	g := graph.New(len(ids))
	for _, e := range edges {
		// Dense ids are in range by construction.
		_ = g.AddEdge(e.u, e.v)
		if e.mutual {
			_ = g.AddEdge(e.v, e.u)
		}
	}
	return g, ids, nil
}

// fitGamma estimates the exponent gamma of the discrete out-degree power law
// P(k) ∝ k^-gamma from the degrees ks at or above kmin, using the
// Clauset–Shalizi–Newman continuous approximation
//
//	gamma ≈ 1 + n / Σ ln(k_i / (kmin - 1/2)).
//
// The approximation is reliable for kmin >= 6 (Clauset–Shalizi–Newman
// 2009, §3.4), which is what Summarize uses. It returns an error if fewer
// than two degrees survive the cut.
func fitGamma(ks []int, kmin int) (gamma float64, n int, err error) {
	if kmin < 1 {
		return 0, 0, errors.New("digg: power-law fit needs kmin >= 1")
	}
	var sum float64
	for _, k := range ks {
		if k < kmin {
			continue
		}
		sum += math.Log(float64(k) / (float64(kmin) - 0.5))
		n++
	}
	if n < 2 {
		return 0, 0, errors.New("digg: power-law fit needs two degrees at or above kmin")
	}
	return 1 + float64(n)/sum, n, nil
}
