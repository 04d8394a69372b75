package sweep

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"radqec/internal/rng"
	"radqec/internal/stats"
)

// runT runs a campaign under a background context and reports any
// terminal error as a test failure (t.Errorf, so goroutine callers are
// safe). The pre-context call shape for every test that expects its
// campaign to finish.
func runT(t *testing.T, cfg Config, points []Point) []Result {
	t.Helper()
	res, err := Run(context.Background(), cfg, points)
	if err != nil {
		t.Errorf("Run: %v", err)
	}
	return res
}

// bernoulliPoint builds a synthetic point honouring the campaign
// determinism contract: shot i of the point consumes split(seed, i).
func bernoulliPoint(key string, seed uint64, p float64) Point {
	return Point{
		Key: key,
		Prepare: func() BatchRunner {
			master := rng.New(seed)
			return func(start, n int) Counts {
				c := Counts{}
				for i := start; i < start+n; i++ {
					c.Shots++
					if master.Split(uint64(i)).Float64() < p {
						c.Errors++
					}
				}
				return c
			}
		},
	}
}

// countShots counts errors of the same stream over one contiguous range.
func countShots(seed uint64, p float64, shots int) Counts {
	pt := bernoulliPoint("", seed, p)
	return pt.Prepare()(0, shots)
}

func TestFixedModeMatchesContiguousRun(t *testing.T) {
	cfg := Config{Policy: Policy{Shots: 1000}}
	res := runT(t, cfg, []Point{bernoulliPoint("a", 3, 0.3)})
	if len(res) != 1 {
		t.Fatalf("results = %d", len(res))
	}
	want := countShots(3, 0.3, 1000)
	if res[0].Counts != want {
		t.Fatalf("fixed sweep %+v != contiguous run %+v", res[0].Counts, want)
	}
	if !res[0].Converged {
		t.Fatal("fixed mode should report converged")
	}
	if res[0].Batches != fixedBatches {
		t.Fatalf("batches = %d, want %d", res[0].Batches, fixedBatches)
	}
	if lo, hi := stats.WilsonCI(want.Errors, want.Shots); res[0].CILo != lo || res[0].CIHi != hi {
		t.Fatalf("CI [%v,%v] mismatch", res[0].CILo, res[0].CIHi)
	}
}

// The satellite regression: identical per-point shot streams and rates
// for Workers=1 and Workers=8, in both fixed and adaptive mode.
func TestRunWorkerDeterminism(t *testing.T) {
	mkPoints := func() []Point {
		var pts []Point
		for i := 0; i < 24; i++ {
			p := float64(i%7) / 10 // rates 0.0 .. 0.6
			pts = append(pts, bernoulliPoint(fmt.Sprintf("p%d", i), uint64(100+i), p))
		}
		return pts
	}
	for _, cfg := range []Config{
		{Policy: Policy{Shots: 700}},
		{Policy: Policy{CI: 0.05}},
	} {
		one := cfg
		one.Workers = 1
		eight := cfg
		eight.Workers = 8
		a := runT(t, one, mkPoints())
		b := runT(t, eight, mkPoints())
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("cfg %+v: workers=1 and workers=8 disagree", cfg)
		}
	}
}

func TestAdaptiveStopsAtTarget(t *testing.T) {
	const ci = 0.02
	cfg := Config{Policy: Policy{CI: ci}}
	res := runT(t, cfg, []Point{bernoulliPoint("easy", 9, 0.01)})[0]
	if !res.Converged {
		t.Fatalf("easy point did not converge: %+v", res.Counts)
	}
	if res.HalfWidth() > ci {
		t.Fatalf("half-width %v above target %v", res.HalfWidth(), ci)
	}
	if cap := WorstCaseShots(ci); res.Shots >= cap {
		t.Fatalf("easy point used %d shots, cap is %d", res.Shots, cap)
	}
}

func TestAdaptiveSavesShotsOverFixedGuarantee(t *testing.T) {
	const ci = 0.03
	cfg := Config{Policy: Policy{CI: ci}}
	var pts []Point
	for i := 0; i < 10; i++ {
		pts = append(pts, bernoulliPoint(fmt.Sprintf("p%d", i), uint64(i), float64(i)/20))
	}
	results := runT(t, cfg, pts)
	s := Summarize(cfg, results)
	if s.TotalShots >= s.FixedShots {
		t.Fatalf("adaptive used %d shots, fixed guarantee costs %d", s.TotalShots, s.FixedShots)
	}
	for _, r := range results {
		if r.HalfWidth() > ci {
			t.Fatalf("point %s half-width %v above %v", r.Key, r.HalfWidth(), ci)
		}
	}
	if s.Converged != s.Points {
		t.Fatalf("converged %d of %d despite default worst-case cap", s.Converged, s.Points)
	}
}

func TestAdaptiveRespectsCap(t *testing.T) {
	cfg := Config{Policy: Policy{CI: 0.001, MaxShots: 500}}
	res := runT(t, cfg, []Point{bernoulliPoint("hard", 5, 0.5)})[0]
	if res.Shots != 500 {
		t.Fatalf("shots = %d, want the 500 cap", res.Shots)
	}
	if res.Converged {
		t.Fatal("cap-limited point reported converged")
	}
}

func TestWorstCaseShots(t *testing.T) {
	for _, ci := range []float64{0.05, 0.02, 0.01} {
		n := WorstCaseShots(ci)
		if n <= 0 {
			t.Fatalf("WorstCaseShots(%v) = %d", ci, n)
		}
		if got := stats.WilsonHalfWidth(n/2, n); got > ci {
			t.Fatalf("half-width %v at worst-case n=%d exceeds %v", got, n, ci)
		}
	}
	// ci=0.01 must land near the Wald worst case z²/(4·ci²) ≈ 9604.
	if n := WorstCaseShots(0.01); n < 9000 || n > 9700 {
		t.Fatalf("WorstCaseShots(0.01) = %d", n)
	}
	if WorstCaseShots(0) != 0 {
		t.Fatal("WorstCaseShots(0) nonzero")
	}
	// Past float64's exact integers the count saturates instead of
	// wrapping or stepping forever.
	for _, ci := range []float64{1e-9, math.SmallestNonzeroFloat64} {
		if n := WorstCaseShots(ci); n != math.MaxInt {
			t.Fatalf("WorstCaseShots(%v) = %d, want math.MaxInt", ci, n)
		}
	}
}

// TestSummarizeSaturates: the fixed-equivalent count of 15 points at a
// cap of math.MaxInt saturates at math.MaxInt instead of wrapping to a
// count below the shots actually run.
func TestSummarizeSaturates(t *testing.T) {
	results := make([]Result, 15)
	for i := range results {
		results[i].Shots = 1024
	}
	for _, cfg := range []Config{
		{Policy: Policy{CI: 0.01, MaxShots: math.MaxInt}},
		{Policy: Policy{Shots: math.MaxInt / 2}},
	} {
		s := Summarize(cfg, results)
		if s.FixedShots != math.MaxInt || s.TotalShots != 15*1024 {
			t.Fatalf("%+v: Summarize = %+v, want FixedShots = math.MaxInt", cfg.Policy, s)
		}
	}
}

func TestOnResultStreamsEveryPoint(t *testing.T) {
	var keys []string
	cfg := Config{Policy: Policy{Shots: 50}, Mechanism: Mechanism{Workers: 4, OnResult: func(r Result) {
		keys = append(keys, r.Key) // serialised by the engine
	}}}
	var pts []Point
	for i := 0; i < 9; i++ {
		pts = append(pts, bernoulliPoint(fmt.Sprintf("k%d", i), uint64(i), 0.2))
	}
	runT(t, cfg, pts)
	if len(keys) != len(pts) {
		t.Fatalf("streamed %d results, want %d", len(keys), len(pts))
	}
	sort.Strings(keys)
	for i, k := range keys {
		if k != fmt.Sprintf("k%d", i) {
			t.Fatalf("stream keys = %v", keys)
		}
	}
}

func TestRunEmpty(t *testing.T) {
	if res := runT(t, Config{}, nil); len(res) != 0 {
		t.Fatalf("empty sweep produced %d results", len(res))
	}
}

func TestAlignRoundsBatchSizes(t *testing.T) {
	// Fixed mode: every batch but the last is a multiple of the
	// alignment, and the total is exactly Shots.
	var sizes []int
	pt := Point{Key: "a", Prepare: func() BatchRunner {
		return func(start, n int) Counts {
			sizes = append(sizes, n)
			return Counts{Shots: n}
		}
	}}
	res := runT(t, Config{Policy: Policy{Shots: 1000, Align: 64}, Mechanism: Mechanism{Workers: 1}}, []Point{pt})[0]
	if res.Shots != 1000 {
		t.Fatalf("shots = %d", res.Shots)
	}
	total := 0
	for i, n := range sizes {
		total += n
		if i < len(sizes)-1 && n%64 != 0 {
			t.Fatalf("batch %d size %d not word-aligned", i, n)
		}
	}
	if total != 1000 {
		t.Fatalf("batches sum to %d", total)
	}

	// Adaptive mode: same property, and the counts still match the
	// contiguous stream (alignment only re-chunks the same shot range).
	sizes = nil
	adaptive := runT(t, Config{Policy: Policy{CI: 0.05, Align: 64}, Mechanism: Mechanism{Workers: 1}},
		[]Point{bernoulliPoint("b", 3, 0.2)})[0]
	want := countShots(3, 0.2, adaptive.Shots)
	if adaptive.Counts != want {
		t.Fatalf("aligned adaptive %+v != contiguous %+v", adaptive.Counts, want)
	}
}

func TestAlignDoesNotChangeMergedCounts(t *testing.T) {
	// The BatchRunner contract makes alignment invisible in the counts:
	// the same point swept with Align 1 and Align 64 at fixed shots
	// yields identical totals.
	a := runT(t, Config{Policy: Policy{Shots: 900}}, []Point{bernoulliPoint("x", 7, 0.3)})[0]
	b := runT(t, Config{Policy: Policy{Shots: 900, Align: 64}}, []Point{bernoulliPoint("x", 7, 0.3)})[0]
	if a.Counts != b.Counts {
		t.Fatalf("alignment changed counts: %+v vs %+v", a.Counts, b.Counts)
	}
}
