package degreedist

import (
	"math"
)

// KFunc maps a node degree to a rate or weight; used for the paper's rumor
// acceptance rate λ(k) and infectivity ω(k).
type KFunc func(k float64) float64

// OmegaConstant returns ω(k) = c: identical infectivity regardless of
// connectivity (Yang et al. 2007, cited as [16]).
func OmegaConstant(c float64) KFunc {
	return func(float64) float64 { return c }
}

// OmegaLinear returns ω(k) = k: infectivity proportional to connectivity
// (Moreno–Pastor-Satorras–Vespignani, cited as [17]).
func OmegaLinear() KFunc {
	return func(k float64) float64 { return k }
}

// OmegaSaturating returns the paper's preferred non-linear infectivity
// ω(k) = k^beta / (1 + k^gamma), which saturates for highly connected
// individuals (cited as [18]; the evaluation uses beta = gamma = 0.5).
func OmegaSaturating(beta, gamma float64) KFunc {
	return func(k float64) float64 {
		return math.Pow(k, beta) / (1 + math.Pow(k, gamma))
	}
}

// LambdaLinear returns the paper's degree-proportional acceptance rate
// λ(k) = max(0, scale·k). Although the prose states 0 < λ(k) < 1, the
// paper's own evaluation sets λ(k_i) = k_i (Section V-A) — a transition
// rate, not a probability — so no upper clamp is applied; scale is the
// calibration knob each experiment uses to pin r0 (see DESIGN.md).
func LambdaLinear(scale float64) KFunc {
	return func(k float64) float64 {
		if v := scale * k; v > 0 {
			return v
		}
		return 0
	}
}
