package noise

import (
	"math"
	"testing"

	"radqec/internal/rng"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestTemporalBoundaries(t *testing.T) {
	if got := Temporal(0); got != 1 {
		t.Fatalf("T(0) = %v, want 1", got)
	}
	if got := Temporal(1); !almostEqual(got, math.Exp(-10), 1e-15) {
		t.Fatalf("T(1) = %v, want e^-10", got)
	}
}

func TestTemporalMonotoneDecreasing(t *testing.T) {
	prev := math.Inf(1)
	for i := 0; i <= 100; i++ {
		v := Temporal(float64(i) / 100)
		if v >= prev {
			t.Fatalf("T not strictly decreasing at %d", i)
		}
		prev = v
	}
}

func TestTemporalStepMatchesSampleGrid(t *testing.T) {
	// Within each of the ns intervals the step function is constant and
	// equals T at the left edge (Figure 3: spike of 100% at impact).
	const ns = 10
	for k := 0; k < ns; k++ {
		left := float64(k) / ns
		mid := left + 0.5/ns
		want := Temporal(left)
		if got := TemporalStep(mid, ns); !almostEqual(got, want, 1e-12) {
			t.Fatalf("step(%v) = %v, want %v", mid, got, want)
		}
	}
	if got := TemporalStep(0, ns); got != 1 {
		t.Fatalf("step(0) = %v, want 1 (impact spike)", got)
	}
}

func TestTemporalStepClamps(t *testing.T) {
	if got := TemporalStep(-0.5, 10); got != 1 {
		t.Fatalf("step(-0.5) = %v", got)
	}
	want := Temporal(0.9)
	if got := TemporalStep(1.5, 10); !almostEqual(got, want, 1e-12) {
		t.Fatalf("step(1.5) = %v, want %v", got, want)
	}
}

func TestTemporalStepPanicsOnBadNs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	TemporalStep(0.5, 0)
}

func TestTemporalSamples(t *testing.T) {
	s := TemporalSamples(10)
	if len(s) != 10 {
		t.Fatalf("len = %d", len(s))
	}
	if s[0] != 1 {
		t.Fatalf("first sample = %v, want 1", s[0])
	}
	for i := 1; i < len(s); i++ {
		if s[i] >= s[i-1] {
			t.Fatalf("samples not decreasing at %d", i)
		}
	}
	// e^-10 decay: second sample is e^-1 of the first.
	if !almostEqual(s[1]/s[0], math.Exp(-1), 1e-12) {
		t.Fatalf("decay ratio = %v", s[1]/s[0])
	}
}

func TestSpatialValues(t *testing.T) {
	cases := []struct {
		d    int
		want float64
	}{
		{0, 1.0},
		{1, 0.25},
		{2, 1.0 / 9},
		{3, 1.0 / 16},
		{9, 0.01},
	}
	for _, c := range cases {
		if got := Spatial(c.d); !almostEqual(got, c.want, 1e-12) {
			t.Fatalf("S(%d) = %v, want %v", c.d, got, c.want)
		}
	}
}

func TestSpatialUnreachable(t *testing.T) {
	if got := Spatial(-1); got != 0 {
		t.Fatalf("S(-1) = %v, want 0", got)
	}
}

func TestSpatialScaledPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SpatialScaled(1, 0)
}

func TestSpatialMonotone(t *testing.T) {
	for d := 0; d < 20; d++ {
		if Spatial(d+1) >= Spatial(d) {
			t.Fatalf("S not decreasing at d=%d", d)
		}
	}
}

func TestDepolarizingZeroRate(t *testing.T) {
	d := NewDepolarizing(0)
	src := rng.New(1)
	for i := 0; i < 1000; i++ {
		if d.Sample(src) != ErrNone {
			t.Fatal("p=0 channel produced an error")
		}
	}
}

func TestDepolarizingFullRate(t *testing.T) {
	d := NewDepolarizing(1)
	src := rng.New(2)
	for i := 0; i < 1000; i++ {
		if d.Sample(src) == ErrNone {
			t.Fatal("p=1 channel produced no error")
		}
	}
}

func TestDepolarizingRates(t *testing.T) {
	const p, trials = 0.3, 300000
	d := NewDepolarizing(p)
	src := rng.New(3)
	counts := map[PauliError]int{}
	for i := 0; i < trials; i++ {
		counts[d.Sample(src)]++
	}
	for _, e := range []PauliError{ErrX, ErrY, ErrZ} {
		rate := float64(counts[e]) / trials
		if !almostEqual(rate, p/3, 0.005) {
			t.Fatalf("P(%v) = %v, want %v", e, rate, p/3)
		}
	}
	noneRate := float64(counts[ErrNone]) / trials
	if !almostEqual(noneRate, 1-p, 0.005) {
		t.Fatalf("P(none) = %v, want %v", noneRate, 1-p)
	}
}

func TestNewDepolarizingPanics(t *testing.T) {
	for _, p := range []float64{-0.1, 1.1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewDepolarizing(%v) did not panic", p)
				}
			}()
			NewDepolarizing(p)
		}()
	}
}

func TestRadiationEventSpread(t *testing.T) {
	dist := []int{2, 1, 0, 1, 2, -1}
	ev := NewRadiationEvent(dist, 1.0, true)
	want := []float64{1.0 / 9, 0.25, 1, 0.25, 1.0 / 9, 0}
	for q := range want {
		if !almostEqual(ev.Probs[q], want[q], 1e-12) {
			t.Fatalf("prob[%d] = %v, want %v", q, ev.Probs[q], want[q])
		}
	}
}

func TestRadiationEventNoSpread(t *testing.T) {
	dist := []int{1, 0, 1}
	ev := NewRadiationEvent(dist, 0.8, false)
	if ev.Probs[0] != 0 || ev.Probs[2] != 0 {
		t.Fatal("no-spread event leaked to neighbours")
	}
	if !almostEqual(ev.Probs[1], 0.8, 1e-12) {
		t.Fatalf("root prob = %v", ev.Probs[1])
	}
}

func TestRadiationEventScalesWithTime(t *testing.T) {
	dist := []int{0, 1}
	late := NewRadiationEvent(dist, Temporal(0.5), true)
	if late.Probs[0] >= 1 {
		t.Fatal("late event should be weaker than impact")
	}
	if !almostEqual(late.Probs[1], Temporal(0.5)*0.25, 1e-12) {
		t.Fatalf("neighbour prob = %v", late.Probs[1])
	}
}

func TestNoRadiation(t *testing.T) {
	ev := NoRadiation(4)
	if len(ev.Probs) != 4 {
		t.Fatalf("NoRadiation covers %d qubits, want 4", len(ev.Probs))
	}
	for q, p := range ev.Probs {
		if p != 0 {
			t.Fatalf("NoRadiation strikes qubit %d with probability %v", q, p)
		}
	}
}

func TestFires(t *testing.T) {
	ev := &RadiationEvent{Probs: []float64{0, 1}}
	src := rng.New(4)
	for i := 0; i < 100; i++ {
		if ev.Fires(0, src) {
			t.Fatal("p=0 qubit fired")
		}
		if !ev.Fires(1, src) {
			t.Fatal("p=1 qubit did not fire")
		}
		if ev.Fires(7, src) {
			t.Fatal("out-of-range qubit fired")
		}
	}
}

func TestFiresRate(t *testing.T) {
	ev := NewRadiationEvent([]int{0}, 0.4, true)
	src := rng.New(5)
	hits := 0
	const trials = 100000
	for i := 0; i < trials; i++ {
		if ev.Fires(0, src) {
			hits++
		}
	}
	if rate := float64(hits) / trials; !almostEqual(rate, 0.4, 0.01) {
		t.Fatalf("fire rate = %v, want 0.4", rate)
	}
}

// --- Geometric skip-sampling (satellite: distribution unchanged) ---

// TestSkipSamplerMatchesDirectDistribution is the satellite proof that
// geometric skip-sampling leaves the depolarizing error distribution
// unchanged: per-site error probability P with each Pauli at P/3,
// matched against the direct per-site sampler within 5-sigma binomial
// tolerance, at rates on both sides of the direct-mode threshold.
func TestSkipSamplerMatchesDirectDistribution(t *testing.T) {
	for _, p := range []float64{0.003, 0.02, 0.3} {
		const sites = 400000
		direct := map[PauliError]int{}
		skip := map[PauliError]int{}
		d := NewDepolarizing(p)
		srcA := rng.New(5)
		for i := 0; i < sites; i++ {
			direct[d.Sample(srcA)]++
		}
		samp := d.Skip()
		srcB := rng.New(6)
		// Shots of 1000 sites each: Reset per shot, like the executors.
		for shot := 0; shot < sites/1000; shot++ {
			samp.Reset(srcB)
			for i := 0; i < 1000; i++ {
				skip[samp.Sample(srcB)]++
			}
		}
		for _, e := range []PauliError{ErrX, ErrY, ErrZ} {
			want := p / 3
			tol := 5 * math.Sqrt(want*(1-want)/sites)
			for name, counts := range map[string]map[PauliError]int{"direct": direct, "skip": skip} {
				if rate := float64(counts[e]) / sites; math.Abs(rate-want) > tol {
					t.Fatalf("p=%v %s: P(%v) = %v, want %v +- %v", p, name, e, rate, want, tol)
				}
			}
		}
	}
}

// The gap between consecutive errors must follow the geometric
// distribution with mean (1-p)/p, same as independent per-site draws.
func TestSkipSamplerGapDistribution(t *testing.T) {
	const p = 0.05
	d := NewDepolarizing(p)
	samp := d.Skip()
	src := rng.New(11)
	samp.Reset(src)
	gap, gaps, sum := 0, 0, 0.0
	const draws = 400000
	for i := 0; i < draws; i++ {
		if samp.Sample(src) == ErrNone {
			gap++
			continue
		}
		sum += float64(gap)
		gaps++
		gap = 0
	}
	if gaps == 0 {
		t.Fatal("no errors sampled")
	}
	mean := sum / float64(gaps)
	want := (1 - p) / p
	// The geometric gap's std is sqrt(1-p)/p; 5 sigma of the mean.
	tol := 5 * math.Sqrt(1-p) / p / math.Sqrt(float64(gaps))
	if math.Abs(mean-want) > tol {
		t.Fatalf("mean gap %v, want %v +- %v", mean, want, tol)
	}
}

func TestSkipSamplerDegenerateRates(t *testing.T) {
	zero := NewDepolarizing(0).Skip()
	src := rng.New(3)
	zero.Reset(src)
	for i := 0; i < 1000; i++ {
		if zero.Sample(src) != ErrNone {
			t.Fatal("p=0 sampler produced an error")
		}
	}
	one := NewDepolarizing(1).Skip()
	one.Reset(src)
	for i := 0; i < 1000; i++ {
		if one.Sample(src) == ErrNone {
			t.Fatal("p=1 sampler produced no error")
		}
	}
}

func TestGeometricSkipClampsDegenerate(t *testing.T) {
	// A vanishing rate yields an astronomically large but finite skip.
	src := rng.New(9)
	invLog := 1 / math.Log1p(-1e-300)
	if got := GeometricSkip(src, invLog); got != 1<<62 {
		t.Fatalf("skip = %d, want clamp", got)
	}
}
