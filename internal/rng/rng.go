// Package rng provides a small, deterministic, allocation-free random
// number generator used throughout the fault-injection campaigns.
//
// The generator is xoshiro256** seeded through SplitMix64. It is not
// cryptographically secure; it is chosen for reproducibility (identical
// streams for identical seeds on every platform) and for cheap stream
// splitting, so that each injection shot can own an independent stream
// and campaigns stay deterministic under any degree of parallelism.
package rng

import (
	"math"
	"math/bits"
)

// Source is a deterministic xoshiro256** pseudo random number generator.
// The zero value is not usable; construct one with New or Split.
type Source struct {
	s0, s1, s2, s3 uint64
}

// splitMix64 advances the state and returns the next SplitMix64 output.
// It is used only to expand seeds into full generator state.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from seed. Distinct seeds yield
// uncorrelated streams; the same seed always yields the same stream.
func New(seed uint64) *Source {
	// A pathological all-zero state would lock the generator at zero.
	// SplitMix64 cannot produce four zero words from any seed, but
	// Reseed's guard keeps the invariant local and obvious.
	src := new(Source)
	src.Reseed(seed)
	return src
}

// Split derives an independent child stream from the source's current
// state and the given index. Calling Split with distinct indices yields
// distinct, reproducible streams regardless of how many values the
// parent has produced in between.
func (s *Source) Split(index uint64) *Source {
	dst := new(Source)
	s.SplitInto(index, dst)
	return dst
}

// SplitInto is Split without the allocation: it reseeds dst in place
// with exactly the stream Split(index) would return, so hot loops can
// pool a fixed set of Sources and re-derive per-word streams for free.
// Any prior state of dst is overwritten.
func (s *Source) SplitInto(index uint64, dst *Source) {
	// Mix the parent state with the index through SplitMix64 so child
	// streams do not overlap the parent sequence.
	sm := s.s0 ^ (s.s2 << 1) ^ (index * 0xd1342543de82ef95)
	dst.Reseed(splitMix64(&sm) ^ index)
}

// Reseed resets the source in place to the state New(seed) would
// construct, discarding its previous stream.
func (s *Source) Reseed(seed uint64) {
	sm := seed
	s.s0 = splitMix64(&sm)
	s.s1 = splitMix64(&sm)
	s.s2 = splitMix64(&sm)
	s.s3 = splitMix64(&sm)
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		s.s3 = 1
	}
}

// Next is one xoshiro256** step on a value: it returns the output and
// the advanced state, touching no memory, so a loop that draws many
// words can keep the state in registers on a local copy and store it
// back once (st := *src; ...; v, st = st.Next(); ...; *src = st).
// Uint64 is this step written back through the pointer.
func (s Source) Next() (uint64, Source) {
	result := bits.RotateLeft64(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = bits.RotateLeft64(s.s3, 45)
	return result, s
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	v, n := s.Next()
	*s = n
	return v
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (s *Source) Float64() float64 {
	// 53 high bits scaled by 2^-53, the standard unbiased construction.
	return float64(s.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	// Lemire's multiply-shift rejection method: unbiased and division-free
	// in the common case.
	un := uint64(n)
	v := s.Uint64()
	hi, lo := mul64(v, un)
	if lo < un {
		threshold := (math.MaxUint64 - un + 1) % un
		for lo < threshold {
			v = s.Uint64()
			hi, lo = mul64(v, un)
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of x and y as (hi, lo).
func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += x0 * y1
	hi = x1*y1 + w2 + w1>>32
	lo = x * y
	return hi, lo
}

// Bool returns true with probability p. Probabilities outside [0,1] are
// clamped: p <= 0 never fires, p >= 1 always fires.
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// thresholdBits is the precision of a Bernoulli threshold: the 53-bit
// grid Float64 lives on.
const thresholdBits = 53

// Threshold quantises an event probability p to the fixed-point
// threshold BernoulliWord compares against, ceil(p·2^53), so that a lane
// fires exactly when its implicit uniform would satisfy Float64() < p.
// As with Bool, !(p > 0) — NaN included — never fires: it maps to 0; p
// >= 1 maps to 2^53, which always fires. BernoulliWord draws nothing for
// either. A caller that draws many words at one p quantises it once.
func Threshold(p float64) uint64 {
	switch {
	case !(p > 0):
		return 0
	case p >= 1:
		return 1 << thresholdBits
	}
	return uint64(math.Ceil(p * (1 << thresholdBits)))
}

// BernoulliWord returns a word of 64 independent Bernoulli(p) bits for
// t = Threshold(p): bit i fires with probability t/2^53, matching the
// distribution of 64 Bool(p) calls.
//
// The sampler compares 64 per-lane uniforms against t bit-serially from
// the most significant bit, early-exiting as soon as every lane's
// comparison is decided; the expected cost is ~7.5 Uint64 draws per
// word (0.12 draws per lane) independent of p, an 8x saving over one
// draw per lane. The loop runs on a local copy of the generator state,
// stored back once, so each draw is a handful of register operations.
func (s *Source) BernoulliWord(t uint64) uint64 {
	if t == 0 {
		return 0
	}
	if t >= 1<<thresholdBits {
		return ^uint64(0)
	}
	st := *s
	var lt uint64    // lanes decided U < t
	eq := ^uint64(0) // lanes still tied with the threshold prefix
	for k := thresholdBits - 1; k >= 0 && eq != 0; k-- {
		var u uint64
		u, st = st.Next()
		if (t>>uint(k))&1 == 1 {
			lt |= eq &^ u // threshold bit 1, lane bit 0: lane is below
			eq &= u
		} else {
			eq &= ^u // threshold bit 0, lane bit 1: lane is above
		}
	}
	*s = st
	return lt
}
