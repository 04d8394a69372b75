package logical

import (
	"math"
	"testing"

	"radqec/internal/circuit"
)

func TestPatchModelValidate(t *testing.T) {
	if err := (PatchModel{LogicalErrorAtImpact: 0.3, IdleError: 0.001}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (PatchModel{LogicalErrorAtImpact: 1.5}).Validate(); err == nil {
		t.Fatal("bad impact error accepted")
	}
	if err := (PatchModel{IdleError: -0.1}).Validate(); err == nil {
		t.Fatal("bad idle error accepted")
	}
	// rng.Bool(NaN) never fires, so a NaN rate would silently act as 0.
	if err := (PatchModel{LogicalErrorAtImpact: math.NaN()}).Validate(); err == nil {
		t.Fatal("NaN impact error accepted")
	}
	if err := (PatchModel{IdleError: math.NaN()}).Validate(); err == nil {
		t.Fatal("NaN idle error accepted")
	}
}

func TestNewInjectorRejectsBadModel(t *testing.T) {
	if _, err := NewInjector(PatchModel{LogicalErrorAtImpact: 2}); err == nil {
		t.Fatal("bad model accepted")
	}
}

// campaign builds a campaign of circ under model, struck at dist (nil:
// no strike).
func campaign(t *testing.T, model PatchModel, dist []int, circ *circuit.Circuit, accept func([]int) bool) *Campaign {
	t.Helper()
	in, err := NewInjector(model)
	if err != nil {
		t.Fatal(err)
	}
	return &Campaign{Injector: in.Struck(dist), Circuit: circ, Accept: accept}
}

// rate runs shots [0, shots) of a campaign and returns its failure rate.
func rate(c *Campaign, seed uint64, shots int) float64 {
	n, failures := c.RunFrom(seed, 0, shots)
	return float64(failures) / float64(n)
}

func TestGHZCleanRun(t *testing.T) {
	camp := campaign(t, PatchModel{}, nil, GHZCircuit(5), GHZAccept)
	if shots, failures := camp.RunFrom(0, 0, 100); shots != 100 || failures != 0 {
		t.Fatalf("clean GHZ: %d of %d shots rejected", failures, shots)
	}
}

func TestGHZAccept(t *testing.T) {
	if !GHZAccept([]int{0, 0, 0}) || !GHZAccept([]int{1, 1, 1}) {
		t.Fatal("valid GHZ records rejected")
	}
	if GHZAccept([]int{0, 1, 0}) {
		t.Fatal("broken GHZ record accepted")
	}
}

func TestTeleportCleanRun(t *testing.T) {
	camp := campaign(t, PatchModel{}, nil, TeleportCircuit(), TeleportAccept)
	if shots, failures := camp.RunFrom(0, 0, 200); shots != 200 || failures != 0 {
		t.Fatalf("clean teleport: %d of %d shots failed", failures, shots)
	}
}

func TestIdleErrorDegradesGHZ(t *testing.T) {
	camp := campaign(t, PatchModel{IdleError: 0.05}, nil, GHZCircuit(5), GHZAccept)
	r := rate(camp, 1, 2000)
	if r == 0 {
		t.Fatal("idle error produced no failures")
	}
	if r > 0.9 {
		t.Fatalf("idle error rate implausibly high: %v", r)
	}
}

func TestStrikeSpreadsAcrossPatches(t *testing.T) {
	model := PatchModel{LogicalErrorAtImpact: 0.5}
	// Linear patch layout: strike patch 0 of 5.
	struck := rate(campaign(t, model, []int{0, 1, 2, 3, 4}, GHZCircuit(5), GHZAccept), 2, 2000)
	clean := rate(campaign(t, model, nil, GHZCircuit(5), GHZAccept), 2, 2000)
	if struck <= clean {
		t.Fatalf("strike did not degrade: struck %v vs clean %v", struck, clean)
	}
}

func TestStrikeDecaysWithDistance(t *testing.T) {
	model := PatchModel{LogicalErrorAtImpact: 0.6}
	near := rate(campaign(t, model, []int{0, 1, 2}, GHZCircuit(3), GHZAccept), 5, 3000)
	far := rate(campaign(t, model, []int{5, 6, 7}, GHZCircuit(3), GHZAccept), 5, 3000)
	if far >= near {
		t.Fatalf("distant strike (%v) not milder than direct hit (%v)", far, near)
	}
}

func TestFlipProbClamping(t *testing.T) {
	in, err := NewInjector(PatchModel{LogicalErrorAtImpact: 1, IdleError: 1})
	if err != nil {
		t.Fatal(err)
	}
	in = in.Struck([]int{0})
	if p := in.flipProb(0); p != 1 {
		t.Fatalf("flip prob = %v, want clamped 1", p)
	}
	// Out-of-range qubit only sees the idle floor.
	if p := in.flipProb(5); math.Abs(p-1) > 1e-12 {
		t.Fatalf("idle-only prob = %v", p)
	}
}

// TestStruckLeavesTheInjectorAlone: Struck neither arms its receiver
// nor keeps the caller's distances, so points built from one injector
// share nothing that changes.
func TestStruckLeavesTheInjectorAlone(t *testing.T) {
	in, err := NewInjector(PatchModel{LogicalErrorAtImpact: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	dist := []int{0}
	struck := in.Struck(dist)
	before := struck.flipProb(0)
	dist[0] = 9
	if p := struck.flipProb(0); p != before || p != 0.5 {
		t.Fatalf("struck flip prob %v, then %v once the caller's distances changed; want 0.5", before, p)
	}
	if p := in.flipProb(0); p != 0 {
		t.Fatalf("Struck armed its receiver: flip prob %v", p)
	}
}

func TestCampaignZeroShots(t *testing.T) {
	camp := campaign(t, PatchModel{}, nil, GHZCircuit(2), GHZAccept)
	if shots, failures := camp.RunFrom(1, 0, 0); shots != 0 || failures != 0 {
		t.Fatalf("zero-shot run = %d shots, %d failures", shots, failures)
	}
}

func TestCampaignDeterministic(t *testing.T) {
	mk := func() float64 {
		return rate(campaign(t, PatchModel{IdleError: 0.02}, nil, GHZCircuit(4), GHZAccept), 42, 500)
	}
	if mk() != mk() {
		t.Fatal("logical campaign not deterministic")
	}
}

// TestRunFromPartitionsMatchRun: shots [0, a) plus [a, n) count exactly
// what [0, n) counts, at every cut — the range contract the sweep's
// batches rely on.
func TestRunFromPartitionsMatchRun(t *testing.T) {
	camp := campaign(t, PatchModel{LogicalErrorAtImpact: 0.4, IdleError: 0.03}, []int{1, 0, 1, 2, 3}, GHZCircuit(5), GHZAccept)
	const n = 700
	shots, failures := camp.RunFrom(9, 0, n)
	if shots != n || failures == 0 {
		t.Fatalf("whole run: %d failures in %d shots", failures, shots)
	}
	for _, a := range []int{1, 63, 64, 350, 699} {
		s1, f1 := camp.RunFrom(9, 0, a)
		s2, f2 := camp.RunFrom(9, a, n-a)
		if s1+s2 != shots || f1+f2 != failures {
			t.Fatalf("cut at %d: %d+%d failures in %d+%d shots, whole run %d in %d", a, f1, f2, s1, s2, failures, shots)
		}
	}
}
