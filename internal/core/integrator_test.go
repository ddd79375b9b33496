package core

import (
	"math"
	"slices"
	"testing"

	"rumornet/internal/degreedist"
	"rumornet/internal/ode"
)

// TestSimulateMatchesAdaptiveOracle backs DESIGN.md §2's claim that the
// figures are integrator-independent at the tolerances used: the production
// fixed-step RK4 path (Model.Simulate, tf/2000 steps, as rumord's ODE jobs
// run it) must agree with a tight-tolerance Dormand–Prince 5(4) solve of the
// same right-hand side on the Digg-scale 848-group model, on both sides of
// the threshold (the paper's r0 = 0.722 extinction and 2.1661 epidemic
// regimes). Both are compared on the population-weighted infected
// fraction at the same checkpoints, so the peak is located the same way.
func TestSimulateMatchesAdaptiveOracle(t *testing.T) {
	const (
		tf    = 150.0 // rumord's default ODE horizon
		i0    = 0.1   // rumord's default seed infection
		tol   = 1e-6  // absolute agreement on final and peak mean I
		every = 10    // RK4 samples between oracle checkpoints
	)
	d, err := degreedist.TruncatedPowerLaw(1.5, 1, 995)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name           string
		r0, eps1, eps2 float64
	}{
		{"r0=0.722", 0.722, 0.2, 0.05},
		{"r0=2.1661", 2.1661, 0.05, 0.01},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := CalibratedModel(d, 0.01, tc.eps1, tc.eps2, tc.r0, degreedist.OmegaSaturating(0.5, 0.5))
			if err != nil {
				t.Fatal(err)
			}
			ic, err := m.UniformIC(i0)
			if err != nil {
				t.Fatal(err)
			}
			fixed, err := m.Simulate(ic, tf, nil)
			if err != nil {
				t.Fatal(err)
			}
			// Every every-th RK4 sample is an oracle checkpoint: DP5(4) runs
			// segment to segment so each checkpoint is a solver endpoint, not
			// an interpolant.
			var got, want []float64
			y := ic
			for j := 0; j < fixed.Len(); j += every {
				if j > 0 {
					sol, err := ode.SolveAdaptive(m.RHS, y, fixed.T[j-every], fixed.T[j],
						&ode.AdaptiveOptions{AbsTol: 1e-12, RelTol: 1e-10})
					if err != nil {
						t.Fatal(err)
					}
					_, y = sol.Last()
				}
				got = append(got, meanI(m, fixed.Y[j]))
				want = append(want, meanI(m, y))
			}
			final := math.Abs(got[len(got)-1] - want[len(want)-1])
			gp, wp := slices.Max(got), slices.Max(want)
			peak := math.Abs(gp - wp)
			t.Logf("final I %.6g vs %.6g (|Δ| %.2g); peak I %.6g vs %.6g (|Δ| %.2g)",
				got[len(got)-1], want[len(want)-1], final, gp, wp, peak)
			if final > tol || peak > tol {
				t.Errorf("RK4 vs DP5(4): final |Δ| %.3g, peak |Δ| %.3g, want both <= %g", final, peak, tol)
			}
		})
	}
}

// meanI is the population-weighted infected fraction Σ_i P(k_i) I_i of
// one packed state (Trajectory.MeanISeries for a single sample).
func meanI(m *Model, y []float64) float64 {
	var s float64
	for i := 0; i < m.N(); i++ {
		s += m.Dist().Prob(i) * m.I(y, i)
	}
	return s
}
