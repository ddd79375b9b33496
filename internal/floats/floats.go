// Package floats provides small dense-vector helpers shared by the numeric
// packages in this repository (ODE integrators, the heterogeneous SIR model
// and the optimal-control solver).
//
// All functions operate on []float64 in place where that is the natural Go
// idiom, never allocate unless documented, and panic only on programmer
// errors (mismatched lengths), mirroring the standard library's slice
// built-ins.
package floats

import (
	"math"
	"strconv"
)

// AddScaled computes dst += c*src element-wise (the BLAS "axpy" operation).
// It panics if the slices have different lengths.
func AddScaled(dst []float64, c float64, src []float64) {
	mustSameLen(len(dst), len(src))
	for i, v := range src {
		dst[i] += c * v
	}
}

// Fill sets every element of dst to v.
func Fill(dst []float64, v float64) {
	for i := range dst {
		dst[i] = v
	}
}

// Sum returns the sum of the elements of a.
func Sum(a []float64) float64 {
	var sum float64
	for _, v := range a {
		sum += v
	}
	return sum
}

// Clamp returns v restricted to the closed interval [lo, hi].
// It panics if lo > hi.
func Clamp(v, lo, hi float64) float64 {
	if lo > hi {
		panic("floats: Clamp with lo > hi (lo=" +
			strconv.FormatFloat(lo, 'g', -1, 64) + ", hi=" +
			strconv.FormatFloat(hi, 'g', -1, 64) + ")")
	}
	switch {
	case v < lo:
		return lo
	case v > hi:
		return hi
	default:
		return v
	}
}

// Linspace returns n evenly spaced values from lo to hi inclusive.
// It panics if n < 2.
func Linspace(lo, hi float64, n int) []float64 {
	if n < 2 {
		panic("floats: Linspace needs n >= 2, got " + strconv.Itoa(n))
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	out[n-1] = hi // avoid accumulated rounding at the endpoint
	return out
}

// Clone returns a newly allocated copy of a. Clone(nil) returns nil.
func Clone(a []float64) []float64 {
	if a == nil {
		return nil
	}
	out := make([]float64, len(a))
	copy(out, a)
	return out
}

// AllFinite reports whether every element of a is finite (not NaN or ±Inf).
func AllFinite(a []float64) bool {
	for _, v := range a {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

func mustSameLen(a, b int) {
	if a != b {
		panic("floats: length mismatch: " + strconv.Itoa(a) + " vs " + strconv.Itoa(b))
	}
}
