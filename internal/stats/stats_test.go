package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v", got)
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v", got)
	}
}

func TestMedianOdd(t *testing.T) {
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Fatalf("Median = %v", got)
	}
}

func TestMedianEven(t *testing.T) {
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("Median = %v", got)
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Median mutated input")
	}
}

func TestQuantileEndpoints(t *testing.T) {
	xs := []float64{10, 20, 30}
	if got := Quantile(xs, 0); got != 10 {
		t.Fatalf("q0 = %v", got)
	}
	if got := Quantile(xs, 1); got != 30 {
		t.Fatalf("q1 = %v", got)
	}
	if got := Quantile(xs, -1); got != 10 {
		t.Fatalf("q<0 = %v", got)
	}
	if got := Quantile(xs, 2); got != 30 {
		t.Fatalf("q>1 = %v", got)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if got := Quantile(xs, 0.25); got != 2.5 {
		t.Fatalf("q0.25 = %v", got)
	}
}

func TestQuantileSortedMatchesQuantile(t *testing.T) {
	// Quantile sorts a copy first, so unsorted input reads the same
	// quantiles as its sorted form and is left as it was.
	xs := []float64{7, 1, 4, 4, 9, 0, 2}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.9, 1} {
		if got, want := Quantile(xs, q), Quantile(sorted, q); got != want {
			t.Fatalf("Quantile(unsorted, %v) = %v, Quantile(sorted) = %v", q, got, want)
		}
	}
	// {0, 1, 2, 4, 4, 7, 9}: q0.25 sits halfway between 1 and 2.
	if got := Quantile(xs, 0.25); got != 1.5 {
		t.Fatalf("q0.25 of unsorted input = %v", got)
	}
	if xs[0] != 7 || xs[6] != 2 {
		t.Fatal("Quantile mutated its input")
	}
	if Quantile(nil, 0.5) != 0 {
		t.Fatal("Quantile(nil) nonzero")
	}
}

func TestMedianProperty(t *testing.T) {
	prop := func(raw []float64) bool {
		var xs []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return Median(xs) == 0
		}
		m := Median(xs)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		// At least half of the values lie on each side.
		return m >= sorted[0] && m <= sorted[len(sorted)-1]
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWilsonHalfWidth(t *testing.T) {
	lo, hi := WilsonCI(30, 100)
	if got := WilsonHalfWidth(30, 100); got != (hi-lo)/2 {
		t.Fatalf("WilsonHalfWidth = %v", got)
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 2})
	if lo != -1 || hi != 7 {
		t.Fatalf("MinMax = %v, %v", lo, hi)
	}
	lo, hi = MinMax(nil)
	if lo != 0 || hi != 0 {
		t.Fatal("MinMax(nil) nonzero")
	}
}

func TestWilsonCIBrackets(t *testing.T) {
	lo, hi := WilsonCI(50, 100)
	if !(lo < 0.5 && 0.5 < hi) {
		t.Fatalf("CI [%v,%v] does not bracket 0.5", lo, hi)
	}
	if hi-lo > 0.25 {
		t.Fatalf("CI too wide for n=100: %v", hi-lo)
	}
}

func TestWilsonCIEdges(t *testing.T) {
	lo, hi := WilsonCI(0, 100)
	if lo != 0 {
		t.Fatalf("lo = %v for k=0", lo)
	}
	if hi < 0.01 || hi > 0.1 {
		t.Fatalf("hi = %v for 0/100", hi)
	}
	lo, hi = WilsonCI(100, 100)
	if hi != 1 {
		t.Fatalf("hi = %v for k=n", hi)
	}
	if lo > 0.99 || lo < 0.9 {
		t.Fatalf("lo = %v for 100/100", lo)
	}
	lo, hi = WilsonCI(0, 0)
	if lo != 0 || hi != 1 {
		t.Fatal("empty trial CI should be [0,1]")
	}
}

func TestWilsonCIShrinksWithN(t *testing.T) {
	lo1, hi1 := WilsonCI(10, 20)
	lo2, hi2 := WilsonCI(1000, 2000)
	if (hi2 - lo2) >= (hi1 - lo1) {
		t.Fatal("CI did not shrink with more trials")
	}
}

func TestTwoSampleZ(t *testing.T) {
	// 60/100 vs 40/100: pooled rate 0.5, se = sqrt(0.25·0.02).
	if got, want := TwoSampleZ(60, 100, 40, 100), 0.2/math.Sqrt(0.005); math.Abs(got-want) > 1e-12 {
		t.Fatalf("z = %v, want %v", got, want)
	}
	if got := TwoSampleZ(40, 100, 60, 100); got >= 0 {
		t.Fatalf("z = %v, want the sign of rate1 - rate2", got)
	}
	for _, c := range [][4]int{{0, 0, 5, 10}, {5, 10, 0, 0}, {0, 10, 0, 20}, {10, 10, 20, 20}} {
		if got := TwoSampleZ(c[0], c[1], c[2], c[3]); got != 0 {
			t.Fatalf("TwoSampleZ%v = %v, want 0", c, got)
		}
	}
}
