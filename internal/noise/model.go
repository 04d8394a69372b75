package noise

import (
	"math"

	"radqec/internal/rng"
)

// PauliError identifies which Pauli operator (if any) the depolarizing
// channel injects after a gate.
type PauliError int

// Possible depolarizing outcomes.
const (
	ErrNone PauliError = iota
	ErrX
	ErrY
	ErrZ
)

// Depolarizing is the intrinsic noise model of Section III-A: after each
// gate operation, an X, Y or Z error is appended, each with probability
// p/3. Two-qubit gates receive the tensor product E⊗E of two independent
// single-qubit channels.
type Depolarizing struct {
	// P is the physical error rate p.
	P float64
}

// NewDepolarizing returns the channel for physical error rate p.
// It panics unless 0 <= p <= 1.
func NewDepolarizing(p float64) Depolarizing {
	if !(p >= 0 && p <= 1) { // NaN fails too
		panic("noise: physical error rate outside [0,1]")
	}
	return Depolarizing{P: p}
}

// Sample draws the error applied to one qubit after one gate.
func (d Depolarizing) Sample(src *rng.Source) PauliError {
	if d.P <= 0 {
		return ErrNone
	}
	u := src.Float64()
	switch {
	case u < d.P/3:
		return ErrX
	case u < 2*d.P/3:
		return ErrY
	case u < d.P:
		return ErrZ
	default:
		return ErrNone
	}
}

// skipThreshold is the error rate above which geometric skip-sampling
// stops paying for itself (one log and ~two draws per error versus one
// draw per site) and the sampler falls back to direct per-site draws.
const skipThreshold = 0.25

// GeometricSkip returns the number of consecutive Bernoulli(p) failures
// before the next success, sampled by inverting the geometric CDF:
// floor(ln(U)/ln(1-p)) for U uniform on (0,1]. invLog1mP must be
// 1/ln(1-p) (strictly negative for 0 < p < 1); callers cache it so hot
// loops pay one log per error instead of one per call. The result is
// clamped to a practically-infinite 2^62 so degenerate probabilities
// cannot overflow position arithmetic.
func GeometricSkip(src *rng.Source, invLog1mP float64) int64 {
	u := 1 - src.Float64() // (0, 1]
	k := fastLog(u) * invLog1mP
	if !(k < 1<<62) { // catches NaN and +Inf too
		return 1 << 62
	}
	return int64(k)
}

// SkipSampler draws the per-site depolarizing outcomes of one shot with
// geometric skip-sampling: instead of one uniform draw per op-qubit, it
// draws the gap to the next error site once per error (O(P·sites) RNG
// work instead of O(sites)), then picks the Pauli uniformly. The sampled
// joint distribution is identical to calling Depolarizing.Sample at
// every site — per-site error probability P, each Pauli P/3 — which
// TestSkipSamplerMatchesDirectDistribution pins.
//
// A sampler value is cheap per-shot state over an immutable template:
// build the template once per executor with Depolarizing.Skip, copy it,
// and Reset the copy with the shot's RNG stream before use.
type SkipSampler struct {
	dep    Depolarizing
	invLog float64 // 1/ln(1-P), cached for GeometricSkip
	direct bool    // P above skipThreshold: per-site draws are cheaper
	skip   int64   // error-free sites remaining before the next error
}

// Skip returns the skip-sampling template for the channel.
func (d Depolarizing) Skip() SkipSampler {
	s := SkipSampler{dep: d}
	switch {
	case d.P <= 0 || d.P >= 1:
		// Degenerate rates never consult the gap distribution.
	case d.P > skipThreshold:
		s.direct = true
	default:
		s.invLog = 1 / math.Log1p(-d.P)
	}
	return s
}

// Reset re-seats the sampler at the start of a shot, drawing the gap to
// the shot's first error. It consumes no randomness when the channel is
// off or runs in direct mode.
func (s *SkipSampler) Reset(src *rng.Source) {
	if s.dep.P <= 0 || s.dep.P >= 1 || s.direct {
		s.skip = 0
		return
	}
	s.skip = GeometricSkip(src, s.invLog)
}

// Sample draws the error of the next site, equivalent in distribution to
// Depolarizing.Sample (but not stream-compatible with it: the two
// consume different random variates).
func (s *SkipSampler) Sample(src *rng.Source) PauliError {
	switch {
	case s.dep.P <= 0:
		return ErrNone
	case s.direct:
		return s.dep.Sample(src)
	case s.dep.P >= 1:
		return PauliError(1 + src.Intn(3))
	}
	if s.skip > 0 {
		s.skip--
		return ErrNone
	}
	s.skip = GeometricSkip(src, s.invLog)
	return PauliError(1 + src.Intn(3))
}

// RadiationEvent is the correlated transient fault of Section III-B: a
// particle strike at a root qubit whose effect decays exponentially in
// time and quadratically with architecture-graph distance. The per-qubit
// fault probability at temporal sample k is
//
//	p_qi = T̂(k/ns) · S(dist(root, qi)) · Scale
//
// and each gate acting on qubit qi is followed by a reset with that
// probability.
type RadiationEvent struct {
	// Probs[q] is the fault probability of qubit q at the current
	// temporal sample.
	Probs []float64
}

// NewRadiationEvent builds the per-qubit probability table for a strike.
//
// dist[q] must hold the architecture-graph distance from the root impact
// point to qubit q (-1 for unreachable qubits). rootProb is the
// probability at the impact point itself (the step-sampled temporal
// value, 1.0 at the moment of impact). spread=false confines the fault
// to distance-0 qubits, the "erasure" configuration of Figures 6 and 7.
func NewRadiationEvent(dist []int, rootProb float64, spread bool) *RadiationEvent {
	probs := make([]float64, len(dist))
	for q, d := range dist {
		switch {
		case d == 0:
			probs[q] = rootProb
		case spread && d > 0:
			probs[q] = rootProb * Spatial(d)
		default:
			probs[q] = 0
		}
	}
	return &RadiationEvent{Probs: probs}
}

// NoRadiation returns an event with zero fault probability everywhere.
func NoRadiation(numQubits int) *RadiationEvent {
	return &RadiationEvent{Probs: make([]float64, numQubits)}
}

// Fires reports whether a reset fault follows a gate on qubit q.
func (r *RadiationEvent) Fires(q int, src *rng.Source) bool {
	if q < 0 || q >= len(r.Probs) {
		return false
	}
	return src.Bool(r.Probs[q])
}
