// Package stats provides the small statistical toolkit the experiment
// harness needs: central tendency, quantiles and binomial confidence
// intervals for logical error rates.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean, 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Median returns the median, 0 for an empty slice. The input is not
// modified.
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
}

// Quantile returns the q-quantile (0 <= q <= 1) using linear
// interpolation between order statistics. The input is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// MinMax returns the extrema of xs; (0, 0) for an empty slice.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// Z95 is the 97.5th percentile of the standard normal — the z-score
// behind every two-sided 95% interval in this package.
const Z95 = 1.959963984540054

// WilsonCI returns the Wilson score 95% confidence interval for a
// binomial proportion with k successes out of n trials.
func WilsonCI(k, n int) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	const z = Z95
	p := float64(k) / float64(n)
	nf := float64(n)
	denom := 1 + z*z/nf
	center := (p + z*z/(2*nf)) / denom
	half := z * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf)) / denom
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// WilsonHalfWidth returns half the width of the Wilson 95% interval,
// the precision measure adaptive campaigns stop on.
func WilsonHalfWidth(k, n int) float64 {
	lo, hi := WilsonCI(k, n)
	return (hi - lo) / 2
}

// TwoSampleZ returns the pooled two-proportion z-score of k1 successes
// in n1 trials against k2 in n2: the difference of the two rates over
// its standard error under the hypothesis that both samples share one
// rate. It is the right comparison of two samplers of one distribution;
// asking one estimate to fall inside the other's 95% interval is not
// (the difference has √2 times one estimate's σ, so equal samplers
// fail that about one seed in six). Zero when either sample is empty
// or the pooled rate is 0 or 1.
func TwoSampleZ(k1, n1, k2, n2 int) float64 {
	if n1 == 0 || n2 == 0 {
		return 0
	}
	f1, f2 := float64(n1), float64(n2)
	pool := float64(k1+k2) / (f1 + f2)
	se := math.Sqrt(pool * (1 - pool) * (1/f1 + 1/f2))
	if se == 0 {
		return 0
	}
	return (float64(k1)/f1 - float64(k2)/f2) / se
}
