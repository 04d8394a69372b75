package frame

import (
	"math"
	"testing"

	"radqec/internal/arch"
	"radqec/internal/circuit"
	"radqec/internal/inject"
	"radqec/internal/noise"
	"radqec/internal/qec"
	"radqec/internal/rng"
)

func TestDeterministicCircuitExact(t *testing.T) {
	// A purely classical circuit: frame outcomes must equal tableau
	// outcomes bit for bit.
	c := circuit.New(3, 3)
	c.X(0)
	c.CNOT(0, 1)
	c.X(2)
	c.X(2)
	c.Measure(0, 0)
	c.Measure(1, 1)
	c.Measure(2, 2)
	sim := newScalar(c, noise.Depolarizing{}, nil, 1)
	f := newShotFrame(3)
	bits := make([]int, 3)
	sim.Run(rng.New(2), f, bits)
	want := inject.NewExecutor(c, noise.Depolarizing{}, nil).Run(rng.New(2))
	for i := range want {
		if bits[i] != want[i] {
			t.Fatalf("bit %d: frame %d vs tableau %d", i, bits[i], want[i])
		}
	}
}

func TestFrameNoiseStatisticsMatchTableau(t *testing.T) {
	// Depolarizing-only campaign on the rep-5 code: engines must agree
	// on the logical error rate within tight statistical error.
	code, err := qec.NewRepetition(5)
	if err != nil {
		t.Fatal(err)
	}
	const shots = 6000
	p := 0.05
	tabCamp := inject.Campaign{
		Exec:       inject.NewExecutor(code.Circ, noise.NewDepolarizing(p), nil),
		DecodeTile: code.DecodeTile,
		Expected:   1,
	}
	frCamp := scalarCampaign{
		Sim:      newScalar(code.Circ, noise.NewDepolarizing(p), nil, 7),
		Decode:   code.Decode,
		Expected: 1,
	}
	tr := tallyOf(tabCamp.RunFrom(11, 0, shots)).Rate()
	fr := tallyOf(frCamp.RunFrom(13, 0, shots)).Rate()
	if math.Abs(tr-fr) > 0.025 {
		t.Fatalf("engines disagree: tableau %.4f vs frame %.4f", tr, fr)
	}
	if fr == 0 {
		t.Fatal("frame engine saw no errors at p=0.05")
	}
}

func TestFrameRadiationExactOnRepetition(t *testing.T) {
	// The repetition code circuit keeps every qubit in a Z eigenstate,
	// so radiation campaigns are frame-exact: rates must agree.
	code, err := qec.NewRepetition(15)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := arch.Transpile(code.Circ, arch.Mesh(5, 6))
	if err != nil {
		t.Fatal(err)
	}
	dist := tr.Topo.Graph.AllPairsShortestPaths()
	ev := noise.NewRadiationEvent(dist[12], 1.0, true)
	const shots = 4000
	tabCamp := inject.Campaign{
		Exec:       inject.NewExecutor(tr.Circuit, noise.NewDepolarizing(0.01), ev),
		DecodeTile: code.DecodeTile,
		Expected:   1,
	}
	frCamp := scalarCampaign{
		Sim:      newScalar(tr.Circuit, noise.NewDepolarizing(0.01), ev, 3),
		Decode:   code.Decode,
		Expected: 1,
	}
	a := tallyOf(tabCamp.RunFrom(5, 0, shots)).Rate()
	b := tallyOf(frCamp.RunFrom(6, 0, shots)).Rate()
	if math.Abs(a-b) > 0.03 {
		t.Fatalf("radiation rates disagree: tableau %.4f vs frame %.4f", a, b)
	}
}

func TestFrameRadiationCloseOnXXZZ(t *testing.T) {
	// XXZZ has superposed reset sites. A reset there projects entangled
	// partners — a nonlocal effect no local Pauli frame can represent —
	// so under saturating strikes the frame engines' collapsed-branch
	// approximation biases toward a coin where the tableau shows a
	// pinned-to-|0> bias (the package documents this validity boundary,
	// and -engine tableau remains the oracle). The test pins the
	// *bounded* disagreement so a regression that widens it further is
	// caught; weak strikes (the whole temporal tail) agree to ~0.02.
	code, err := qec.NewXXZZ(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := arch.Transpile(code.Circ, arch.Mesh(5, 4))
	if err != nil {
		t.Fatal(err)
	}
	dist := tr.Topo.Graph.AllPairsShortestPaths()
	ev := noise.NewRadiationEvent(dist[2], 1.0, true)
	const shots = 3000
	a := tallyOf((&inject.Campaign{
		Exec:       inject.NewExecutor(tr.Circuit, noise.NewDepolarizing(0.01), ev),
		DecodeTile: code.DecodeTile,
		Expected:   1,
	}).RunFrom(5, 0, shots)).Rate()
	sim := newScalar(tr.Circuit, noise.NewDepolarizing(0.01), ev, 3)
	scalar := tallyOf((&scalarCampaign{Sim: sim, Decode: code.Decode, Expected: 1}).RunFrom(6, 0, shots)).Rate()
	batch := tallyOf((&BatchCampaign{Sim: sim.BatchSimulator, DecodeTile: code.DecodeTile, Expected: 1}).RunFrom(6, 0, shots)).Rate()
	t.Logf("tableau %.4f, scalar %.4f, batch %.4f", a, scalar, batch)
	for _, e := range []struct {
		name string
		rate float64
	}{{"scalar", scalar}, {"batch", batch}} {
		if math.Abs(a-e.rate) > 0.30 {
			t.Errorf("XXZZ radiation divergence regressed: tableau %.4f vs %s %.4f", a, e.name, e.rate)
		}
		if e.rate == 0 {
			t.Errorf("%s engine saw no radiation errors at all", e.name)
		}
	}
}

func TestFrameCleanRunErrorFree(t *testing.T) {
	for _, mk := range []func() (*qec.Code, error){
		func() (*qec.Code, error) { return qec.NewRepetition(7) },
		func() (*qec.Code, error) { return qec.NewXXZZ(3, 3) },
	} {
		code, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		camp := scalarCampaign{
			Sim:      newScalar(code.Circ, noise.Depolarizing{}, nil, 9),
			Decode:   code.Decode,
			Expected: 1,
		}
		if r := tallyOf(camp.RunFrom(1, 0, 500)); r.Errors != 0 {
			t.Fatalf("%s: clean frame campaign produced %d errors", code.Name, r.Errors)
		}
	}
}

func TestFrameRunFromPartitionsMatchRun(t *testing.T) {
	code, err := qec.NewRepetition(5)
	if err != nil {
		t.Fatal(err)
	}
	camp := scalarCampaign{
		Sim:      newScalar(code.Circ, noise.NewDepolarizing(0.05), nil, 2),
		Decode:   code.Decode,
		Expected: 1,
	}
	whole := tallyOf(camp.RunFrom(44, 0, 900))
	var merged tally
	for _, r := range [][2]int{{0, 300}, {300, 299}, {599, 301}} {
		part := tallyOf(camp.RunFrom(44, r[0], r[1]))
		merged.Shots += part.Shots
		merged.Errors += part.Errors
	}
	if merged != whole {
		t.Fatalf("partitioned runs %+v != whole run %+v", merged, whole)
	}
}

func TestFrameGatePropagation(t *testing.T) {
	// An injected X before a CNOT control must flip both measurement
	// outcomes; model it with a unit-probability radiation fault whose
	// reference site holds |0> (so the frame sees X^0 erase + pin: the
	// deviation survives as reference |0> vs actual |0> = none). Use a
	// hand-driven frame instead to check propagation rules directly.
	c := circuit.New(2, 2)
	c.CNOT(0, 1)
	c.Measure(0, 0)
	c.Measure(1, 1)
	sim := newScalar(c, noise.Depolarizing{}, nil, 1)
	f := newShotFrame(2)
	bits := make([]int, 2)
	// Manually seed an X deviation on qubit 0, then run ops by hand.
	f.Clear()
	f.flipX(0)
	// Replay: CNOT should copy the X to qubit 1.
	if f.getX(0) != 1 || f.getX(1) != 0 {
		t.Fatal("setup wrong")
	}
	sim2 := sim // the op-level behavior is in Run; test through a noise channel instead
	_ = sim2
	// Use a full-probability X-ish channel: depolarizing p=1 flips
	// something every gate; instead verify via the public path that a
	// radiation fault on the control after reference X propagates.
	c2 := circuit.New(2, 2)
	c2.X(0) // reference holds |1> on q0
	c2.Z(0) // extra op: the fault site (reference still |1>)
	c2.CNOT(0, 1)
	c2.Measure(0, 0)
	c2.Measure(1, 1)
	ev := &noise.RadiationEvent{Probs: []float64{1, 0}}
	fsim := newScalar(c2, noise.Depolarizing{}, ev, 1)
	fbits := make([]int, 2)
	fsim.Run(rng.New(1), f, fbits)
	want := inject.NewExecutor(c2, noise.Depolarizing{}, ev).Run(rng.New(1))
	if fbits[0] != want[0] || fbits[1] != want[1] {
		t.Fatalf("frame %v vs tableau %v", fbits, want)
	}
	if fbits[0] != 0 || fbits[1] != 0 {
		t.Fatalf("pinned control should zero both outcomes, got %v", fbits)
	}
	_ = bits
}

func TestFramePanicsOnSizeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c := circuit.New(2, 0)
	NewBatch(c, noise.Depolarizing{}, &noise.RadiationEvent{Probs: []float64{1}}, 1)
}

func TestHConjugatesFrames(t *testing.T) {
	// X deviation through H becomes Z: measurement outcome unaffected.
	c := circuit.New(1, 1)
	c.H(0)
	c.H(0)
	c.Measure(0, 0)
	sim := newScalar(c, noise.Depolarizing{}, nil, 1)
	f := newShotFrame(1)
	bits := make([]int, 1)
	sim.Run(rng.New(5), f, bits)
	if bits[0] != 0 {
		t.Fatalf("HH|0> frame-measured %d", bits[0])
	}
}

// --- Universal-engine tests: measurement sampling over the full
// Clifford set must follow the tableau engine's joint distribution ---

// sampleDist estimates the empirical distribution over full classical
// records, with run executing one shot into bits for each shot index.
func sampleDist(shots, nbits int, run func(shot int, bits []int)) map[string]float64 {
	counts := map[string]float64{}
	bits := make([]int, nbits)
	key := make([]byte, nbits)
	for i := 0; i < shots; i++ {
		for j := range bits {
			bits[j] = 0
		}
		run(i, bits)
		for j, b := range bits {
			key[j] = byte('0' + b)
		}
		counts[string(key)]++
	}
	for k := range counts {
		counts[k] /= float64(shots)
	}
	return counts
}

// checkDistClose fails when any outcome's frequency differs by more
// than tol between the two distributions.
func checkDistClose(t *testing.T, name string, want, got map[string]float64, tol float64) {
	t.Helper()
	keys := map[string]bool{}
	for k := range want {
		keys[k] = true
	}
	for k := range got {
		keys[k] = true
	}
	for k := range keys {
		if d := got[k] - want[k]; d > tol || d < -tol {
			t.Fatalf("%s: outcome %q frequency %0.4f vs tableau %0.4f (want within %0.3f)",
				name, k, got[k], want[k], tol)
		}
	}
}

// engineDists samples the record distribution of the same circuit from
// the tableau executor, the scalar frame engine and the batched frame
// engine.
func engineDists(t *testing.T, c *circuit.Circuit, shots int) (tab, scalar, batched map[string]float64) {
	t.Helper()
	ex := inject.NewExecutor(c, noise.Depolarizing{}, nil)
	tab = sampleDist(shots, c.NumClbits, func(i int, bits []int) {
		copy(bits, ex.Run(rng.New(uint64(1000+i))))
	})
	sim := newScalar(c, noise.Depolarizing{}, nil, 42)
	f := newShotFrame(c.NumQubits)
	scalar = sampleDist(shots, c.NumClbits, func(i int, bits []int) {
		sim.Run(rng.New(uint64(5000+i)), f, bits)
	})
	b := sim.BatchSimulator
	st := b.NewTileState(1)
	words := (shots + 63) / 64
	counts := map[string]float64{}
	key := make([]byte, c.NumClbits)
	for w := 0; w < words; w++ {
		runOne(b, rng.New(uint64(9000+w)), st)
		for lane := uint(0); lane < 64; lane++ {
			for j, word := range st.Rec {
				key[j] = byte('0' + (word>>lane)&1)
			}
			counts[string(key)]++
		}
	}
	for k := range counts {
		counts[k] /= float64(words * 64)
	}
	return tab, scalar, counts
}

// TestUniversalSamplingBell pins the headline universality property the
// pre-universal engine lacked: a Bell measurement must produce BOTH
// branches (50/50, perfectly correlated) rather than pinning every shot
// to the reference branch.
func TestUniversalSamplingBell(t *testing.T) {
	c := circuit.New(2, 2)
	c.H(0)
	c.CNOT(0, 1)
	c.Measure(0, 0)
	c.Measure(1, 1)
	tab, scalar, batched := engineDists(t, c, 6000)
	for _, k := range []string{"01", "10"} {
		if tab[k] != 0 || scalar[k] != 0 || batched[k] != 0 {
			t.Fatalf("anti-correlated Bell outcome appeared: tab=%v scalar=%v batch=%v", tab, scalar, batched)
		}
	}
	checkDistClose(t, "bell/scalar", tab, scalar, 0.03)
	checkDistClose(t, "bell/batched", tab, batched, 0.03)
	if scalar["00"] < 0.4 || scalar["11"] < 0.4 {
		t.Fatalf("scalar frame pinned the Bell branch: %v", scalar)
	}
}

// TestUniversalSamplingMidCircuit pins fresh-coin independence across a
// re-opened branch: H-M-H-M outcomes are two independent fair coins.
func TestUniversalSamplingMidCircuit(t *testing.T) {
	c := circuit.New(1, 2)
	c.H(0)
	c.Measure(0, 0)
	c.H(0)
	c.Measure(0, 1)
	tab, scalar, batched := engineDists(t, c, 8000)
	for _, k := range []string{"00", "01", "10", "11"} {
		if scalar[k] < 0.18 || batched[k] < 0.18 {
			t.Fatalf("mid-circuit coins not independent: scalar=%v batch=%v", scalar, batched)
		}
	}
	checkDistClose(t, "midcircuit/scalar", tab, scalar, 0.03)
	checkDistClose(t, "midcircuit/batched", tab, batched, 0.03)
}

// TestUniversalSamplingResetCollapse pins the correlation a reset's
// projection induces: resetting half a Bell pair leaves the partner in
// the measured branch, so M(partner) is uniform while M(reset qubit) is
// pinned to 0 — randomness that must flow from the preparation coins,
// not from the reset itself.
func TestUniversalSamplingResetCollapse(t *testing.T) {
	c := circuit.New(2, 2)
	c.H(0)
	c.CNOT(0, 1)
	c.Reset(0)
	c.Measure(0, 0)
	c.Measure(1, 1)
	tab, scalar, batched := engineDists(t, c, 8000)
	for _, k := range []string{"10", "11"} {
		if scalar[k] != 0 || batched[k] != 0 {
			t.Fatalf("reset qubit measured 1: scalar=%v batch=%v", scalar, batched)
		}
	}
	if scalar["00"] < 0.4 || scalar["01"] < 0.4 || batched["00"] < 0.4 || batched["01"] < 0.4 {
		t.Fatalf("partner branch pinned after reset: scalar=%v batch=%v", scalar, batched)
	}
	checkDistClose(t, "reset/scalar", tab, scalar, 0.03)
	checkDistClose(t, "reset/batched", tab, batched, 0.03)
}

// TestUniversalSamplingGHZ pins three-way branch correlation and the
// S-gate path: a GHZ measurement lands on {000, 111} only, and
// HSSH = HZH = X makes a deterministic |1>.
func TestUniversalSamplingGHZ(t *testing.T) {
	g := circuit.New(3, 3)
	g.H(0)
	g.CNOT(0, 1)
	g.CNOT(1, 2)
	g.Measure(0, 0)
	g.Measure(1, 1)
	g.Measure(2, 2)
	tab, scalar, batched := engineDists(t, g, 6000)
	for k := range scalar {
		if k != "000" && k != "111" {
			t.Fatalf("non-GHZ outcome %q: %v", k, scalar)
		}
	}
	checkDistClose(t, "ghz/scalar", tab, scalar, 0.03)
	checkDistClose(t, "ghz/batched", tab, batched, 0.03)

	s := circuit.New(1, 1)
	s.H(0)
	s.S(0)
	s.S(0)
	s.H(0)
	s.Measure(0, 0)
	_, scalarS, batchedS := engineDists(t, s, 640)
	if scalarS["1"] != 1 || batchedS["1"] != 1 {
		t.Fatalf("HSSH|0> should measure 1 always: scalar=%v batch=%v", scalarS, batchedS)
	}
}

// TestFrameXXZZDepolarizingMatchesTableau pins the universal engine's
// exact domain on the paper's headline code: depolarizing-only XXZZ
// rates from the frame engine must agree with the tableau within tight
// statistical error.
func TestFrameXXZZDepolarizingMatchesTableau(t *testing.T) {
	code, err := qec.NewXXZZ(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	const shots = 6000
	p := 0.03
	a := tallyOf((&inject.Campaign{
		Exec:       inject.NewExecutor(code.Circ, noise.NewDepolarizing(p), nil),
		DecodeTile: code.DecodeTile,
		Expected:   1,
	}).RunFrom(11, 0, shots)).Rate()
	b := tallyOf((&scalarCampaign{
		Sim:      newScalar(code.Circ, noise.NewDepolarizing(p), nil, 7),
		Decode:   code.Decode,
		Expected: 1,
	}).RunFrom(13, 0, shots)).Rate()
	if math.Abs(a-b) > 0.025 {
		t.Fatalf("XXZZ depolarizing engines disagree: tableau %.4f vs frame %.4f", a, b)
	}
	if b == 0 {
		t.Fatal("frame engine saw no errors at p=0.03")
	}
}
