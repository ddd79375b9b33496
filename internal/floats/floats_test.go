package floats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAddScaled(t *testing.T) {
	dst := []float64{1, 1, 1}
	AddScaled(dst, 0.5, []float64{2, 4, 6})
	want := []float64{2, 3, 4}
	if !equalWithin(dst, want, 1e-15) {
		t.Errorf("AddScaled = %v, want %v", dst, want)
	}
}

func TestFill(t *testing.T) {
	dst := make([]float64, 4)
	Fill(dst, 7)
	for i, v := range dst {
		if v != 7 {
			t.Errorf("dst[%d] = %v, want 7", i, v)
		}
	}
}

func TestSum(t *testing.T) {
	if got := Sum([]float64{3, 4}); got != 7 {
		t.Errorf("Sum = %v, want 7", got)
	}
}

func TestClamp(t *testing.T) {
	tests := []struct {
		name      string
		v, lo, hi float64
		want      float64
	}{
		{"below", -1, 0, 1, 0},
		{"inside", 0.5, 0, 1, 0.5},
		{"above", 2, 0, 1, 1},
		{"at-lo", 0, 0, 1, 0},
		{"at-hi", 1, 0, 1, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Clamp(tt.v, tt.lo, tt.hi); got != tt.want {
				t.Errorf("Clamp(%v,%v,%v) = %v, want %v", tt.v, tt.lo, tt.hi, got, tt.want)
			}
		})
	}
}

func TestClampPanicsOnInvertedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Clamp(0, 1, 0) did not panic")
		}
	}()
	Clamp(0, 1, 0)
}

func TestLinspace(t *testing.T) {
	got := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	if !equalWithin(got, want, 1e-15) {
		t.Errorf("Linspace = %v, want %v", got, want)
	}
	if got := Linspace(0, 0.3, 4); got[3] != 0.3 {
		t.Errorf("Linspace endpoint = %v, want exactly 0.3", got[3])
	}
}

func TestClone(t *testing.T) {
	a := []float64{1, 2}
	b := Clone(a)
	b[0] = 99
	if a[0] != 1 {
		t.Error("Clone did not copy: mutation leaked to source")
	}
	if Clone(nil) != nil {
		t.Error("Clone(nil) != nil")
	}
}

func TestAllFinite(t *testing.T) {
	if !AllFinite([]float64{1, -2, 0}) {
		t.Error("AllFinite(finite) = false")
	}
	if AllFinite([]float64{1, math.NaN()}) {
		t.Error("AllFinite(NaN) = true")
	}
	if AllFinite([]float64{math.Inf(1)}) {
		t.Error("AllFinite(+Inf) = true")
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddScaled with mismatched lengths did not panic")
		}
	}()
	AddScaled([]float64{1}, 1, []float64{1, 2})
}

// Property: AddScaled(dst, 1, src) is the element-wise sum dst + src.
func TestQuickAddScaledMatchesAdd(t *testing.T) {
	f := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		a, b = a[:n], b[:n]
		x, y := Clone(a), Clone(a)
		for i, v := range b {
			x[i] += v
		}
		AddScaled(y, 1, b)
		return equalWithin(x, y, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// equalWithin reports whether a and b have the same length and no pair of
// elements differs by more than tol.
func equalWithin(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if math.Abs(v-b[i]) > tol {
			return false
		}
	}
	return true
}
