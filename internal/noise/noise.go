// Package noise implements the two error processes of the paper
// (Section III): the intrinsic depolarizing noise of a superconducting
// device and the radiation-induced transient fault with its temporal
// decay T(t), spatial damping S(d), and combined transient error decay
// function F(t, d) = T(t)·S(d).
//
// It also holds the samplers the engines draw both processes with.
// SkipSampler serves the scalar engines, one site at a time: geometric
// gaps below skipThreshold, a draw per site above. LaneSampler is its
// batched twin for the 64-lane tile kernel, one site-word at a time,
// for either channel: nothing drawn at p <= 0 and p >= 1, geometric
// gaps with a carried cursor below 1/32, one rng.BernoulliWord per site
// from there up; PauliWords types a whole word of depolarizing errors at
// once.
package noise

import "math"

// Gamma is the temporal decay constant of the radiation event
// (Equation 5 of the paper).
const Gamma = 10.0

// DefaultSamples is the paper's choice of ns, the number of equidistant
// samples of the temporal decay used to approximate T(t) by a step
// function (Figure 3).
const DefaultSamples = 10

// DefaultSpatialScale is n in Equation 6; the paper fixes n = 1.
const DefaultSpatialScale = 1.0

// Temporal returns T(t) = e^{-γt}, the probability of quasiparticle
// generation at normalised time t ∈ [0, 1] after the particle strike.
func Temporal(t float64) float64 {
	return math.Exp(-Gamma * t)
}

// TemporalStep returns T̂(t): the value of the step approximation of the
// temporal decay sampled over ns equidistant points. Sample k covers
// t ∈ [k/ns, (k+1)/ns) and holds the value T(k/ns), so the approximation
// spikes at 100% at the moment of impact, exactly as in Figure 3.
func TemporalStep(t float64, ns int) float64 {
	if ns <= 0 {
		panic("noise: temporal sample count must be positive")
	}
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	k := int(t * float64(ns))
	if k >= ns {
		k = ns - 1
	}
	return Temporal(float64(k) / float64(ns))
}

// TemporalSamples returns the ns step values [T(0), T(1/ns), ...,
// T((ns-1)/ns)] that parameterise the fault's time evolution.
func TemporalSamples(ns int) []float64 {
	if ns <= 0 {
		panic("noise: temporal sample count must be positive")
	}
	out := make([]float64, ns)
	for k := range out {
		out[k] = Temporal(float64(k) / float64(ns))
	}
	return out
}

// Spatial returns S(d) = n² / (d+n)² with n = 1 (Equation 6): the
// damping of the deposited charge at integer architecture-graph distance
// d from the root impact point. S(0) = 1, S(1) = 1/4, S(2) = 1/9, ...
func Spatial(d int) float64 {
	return SpatialScaled(d, DefaultSpatialScale)
}

// SpatialScaled is Spatial with an explicit scale parameter n.
func SpatialScaled(d int, n float64) float64 {
	if n <= 0 {
		panic("noise: spatial scale must be positive")
	}
	if d < 0 {
		// Disconnected from the impact point: no charge reaches it.
		return 0
	}
	return n * n / ((float64(d) + n) * (float64(d) + n))
}
