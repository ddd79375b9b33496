package surface

import "math"

// Error bound (DESIGN.md §15): for 1-D linear interpolation on a cell of
// width h, the classical remainder is |f(x) − p(x)| ≤ h²·max|f''|/8. We
// do not know f'', but the grid's own second differences estimate it:
// Δ²f(xᵢ) = f(xᵢ₋₁) − 2f(xᵢ) + f(xᵢ₊₁) ≈ h²·f''(xᵢ), so max|Δ²f|/8
// bounds the per-axis error wherever the curvature between samples is no
// wilder than at the samples. Multilinear interpolation errs by at most
// the sum of the per-axis 1-D errors, so the surface bound is
//
//	bound = 2 · Σ_axes max|Δ²f along that axis| / 8
//
// with a safety factor of 2 absorbing both the finite-difference
// approximation of f'' and non-uniform grid spacing (the raw adjacent
// second difference under-estimates curvature when spacing shrinks).
// Axes with only two samples have no second difference; their
// contribution falls back to max|Δf|/2 — half the largest swing across a
// cell, the worst case for any function that stays within the sampled
// range. Single-point axes contribute nothing: Eval requires an exact
// coordinate match on them. The bound is global per field (the max over
// all cells), so one number certifies every in-hull answer; the golden
// test in the service layer checks it against direct solver runs on
// off-grid points.
//
// The curvature estimate says nothing about rounding: on a field that is
// linear along the grid (r0 swept along the r0 axis) every second
// difference is 0, yet the interpolated answer and the exact solver's
// answer each round by an ulp or two. The bound therefore never drops
// below roundingULPs·ε·max|f|.

// roundingULPs is the rounding floor in units of ε·max|f|: interpolation
// rounds by about one ulp per corner weight and the exact solve by a few
// more, so eight leaves headroom over the 1.3 ulps observed on linear
// fields.
const roundingULPs = 8

// errorBound computes the global multilinear interpolation error bound
// for one row-major field tensor.
func errorBound(t []float64, axes []Axis) float64 {
	maxAbs := 0.0
	for _, v := range t {
		maxAbs = math.Max(maxAbs, math.Abs(v))
	}
	return math.Max(curvatureBound(t, axes), roundingULPs*epsilon*maxAbs)
}

// epsilon is the float64 machine epsilon, 2⁻⁵².
const epsilon = 0x1p-52

// curvatureBound is the second-difference estimate described above.
func curvatureBound(t []float64, axes []Axis) float64 {
	// Strides of each axis in the row-major layout (last axis fastest).
	n := len(axes)
	strides := make([]int, n)
	stride := 1
	for a := n - 1; a >= 0; a-- {
		strides[a] = stride
		stride *= len(axes[a].Values)
	}
	total := 0.0
	for a := 0; a < n; a++ {
		na := len(axes[a].Values)
		if na < 2 {
			continue
		}
		st := strides[a]
		maxd := 0.0
		// Walk every line parallel to axis a: indices where the a-th
		// coordinate is 0, then step by the stride.
		for base := 0; base < len(t); base++ {
			if (base/st)%na != 0 {
				continue
			}
			if na == 2 {
				if d := math.Abs(t[base+st] - t[base]); d > maxd {
					maxd = d
				}
				continue
			}
			for i := 1; i < na-1; i++ {
				j := base + i*st
				if d := math.Abs(t[j-st] - 2*t[j] + t[j+st]); d > maxd {
					maxd = d
				}
			}
		}
		if na == 2 {
			total += maxd / 2
		} else {
			total += maxd / 8
		}
	}
	return 2 * total
}
