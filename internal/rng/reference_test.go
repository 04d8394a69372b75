package rng

import (
	"math"
	"testing"
)

// referenceUint64 and referenceBernoulli64 are Source.Uint64 and the
// bit-serial Source.Bernoulli64 as they stood before the samplers moved
// onto register-resident state (Source.Next, Threshold, BernoulliWord),
// kept verbatim — the step through the pointer, ceil(p·2^53) per call —
// as the frozen reference the differential and fuzz tests hold the
// stream to. They must not be edited: every fig5 and fig8 table was
// drawn with them. The one intended difference is NaN, on which the
// reference fires every lane and BernoulliWord(Threshold(NaN)) none.
func referenceUint64(s *Source) uint64 {
	rotl := func(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }
	result := rotl(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = rotl(s.s3, 45)
	return result
}

func referenceBernoulli64(s *Source, p float64) uint64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return ^uint64(0)
	}
	// Fires iff U < p for a 53-bit uniform integer U, i.e. U < ceil(p·2^53).
	const bitsP = 53
	t := uint64(math.Ceil(p * (1 << bitsP)))
	if t >= 1<<bitsP {
		return ^uint64(0)
	}
	var lt uint64    // lanes decided U < t
	eq := ^uint64(0) // lanes still tied with the threshold prefix
	for k := bitsP - 1; k >= 0 && eq != 0; k-- {
		u := referenceUint64(s)
		if (t>>uint(k))&1 == 1 {
			lt |= eq &^ u // threshold bit 1, lane bit 0: lane is below
			eq &= u
		} else {
			eq &= ^u // threshold bit 0, lane bit 1: lane is above
		}
	}
	return lt
}

// checkBernoulliMatchesReference draws n words at p from seed on both
// samplers and then one Uint64 from each, so a sampler that returns the
// right words but leaves the stream elsewhere fails too.
func checkBernoulliMatchesReference(t *testing.T, p float64, seed uint64, n int) {
	t.Helper()
	got, want := New(seed), New(seed)
	for i := 0; i < n; i++ {
		if g, w := bernoulli64(got, p), referenceBernoulli64(want, p); g != w {
			t.Fatalf("p=%v (%#x) seed %d word %d: %#x, reference %#x", p, math.Float64bits(p), seed, i, g, w)
		}
	}
	if g, w := got.Uint64(), referenceUint64(want); g != w {
		t.Fatalf("p=%v (%#x) seed %d: after %d words the stream reads %#x, reference %#x", p, math.Float64bits(p), seed, n, g, w)
	}
}

// TestBernoulliMatchesReference holds BernoulliWord(Threshold(p)) to the
// frozen loop at the smallest positive threshold, the gap/word boundary
// of the tile kernel, threshold's depolarizing column, a fair coin, the
// largest p below one, and random ps, each over several seeds.
func TestBernoulliMatchesReference(t *testing.T) {
	ps := []float64{math.Ldexp(1, -53), 1.0 / 32, 0.1, 0.5, math.Nextafter(1, 0)}
	r := New(2026)
	for i := 0; i < 32; i++ {
		ps = append(ps, r.Float64())
	}
	for _, p := range ps {
		for seed := uint64(1); seed <= 8; seed++ {
			checkBernoulliMatchesReference(t, p, seed, 200)
		}
	}
}

// TestUint64MatchesReference holds the register-level step Uint64 is
// written with to the frozen pointer step, across reseeds and splits.
func TestUint64MatchesReference(t *testing.T) {
	for seed := uint64(0); seed < 16; seed++ {
		got, want := New(seed), New(seed)
		for i := 0; i < 1000; i++ {
			if g, w := got.Uint64(), referenceUint64(want); g != w {
				t.Fatalf("seed %d draw %d: %#x, reference %#x", seed, i, g, w)
			}
		}
	}
}

// FuzzBernoulliMatchesReference runs the same comparison on arbitrary
// p bits (subnormals, infinities and both signs included), seeds and
// word counts. NaN is the one input where the two are meant to differ:
// the word must be 0 and the stream untouched.
func FuzzBernoulliMatchesReference(f *testing.F) {
	for _, p := range []float64{math.Ldexp(1, -53), 1.0 / 32, 0.1, 0.5, math.Nextafter(1, 0), 0, 1, -1, math.Inf(1), 5e-324} {
		f.Add(math.Float64bits(p), uint64(7), uint8(3))
	}
	f.Fuzz(func(t *testing.T, pbits, seed uint64, n uint8) {
		p := math.Float64frombits(pbits)
		if math.IsNaN(p) {
			s := New(seed)
			before := *s
			if got := bernoulli64(s, p); got != 0 || *s != before {
				t.Fatalf("NaN %#x: word %#x, stream moved %v", pbits, got, *s != before)
			}
			return
		}
		checkBernoulliMatchesReference(t, p, seed, int(n))
	})
}
