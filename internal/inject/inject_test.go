package inject

import (
	"testing"

	"radqec/internal/circuit"
	"radqec/internal/noise"
	"radqec/internal/rng"
)

// bellCircuit prepares a Bell pair and measures both halves.
func bellCircuit() *circuit.Circuit {
	c := circuit.New(2, 2)
	c.H(0)
	c.CNOT(0, 1)
	c.Measure(0, 0)
	c.Measure(1, 1)
	return c
}

func TestExecutorCleanRun(t *testing.T) {
	c := circuit.New(1, 1)
	c.X(0)
	c.Measure(0, 0)
	ex := NewExecutor(c, noise.Depolarizing{}, nil)
	for seed := uint64(0); seed < 20; seed++ {
		bits := ex.Run(rng.New(seed))
		if bits[0] != 1 {
			t.Fatalf("clean X|0> measured %d", bits[0])
		}
	}
}

func TestExecutorBellCorrelations(t *testing.T) {
	ex := NewExecutor(bellCircuit(), noise.Depolarizing{}, nil)
	for seed := uint64(0); seed < 200; seed++ {
		bits := ex.Run(rng.New(seed))
		if bits[0] != bits[1] {
			t.Fatal("noiseless Bell pair decorrelated")
		}
	}
}

func TestExecutorDeterministic(t *testing.T) {
	ex := NewExecutor(bellCircuit(), noise.NewDepolarizing(0.2), nil)
	a := ex.Run(rng.New(5))
	b := ex.Run(rng.New(5))
	if a[0] != b[0] || a[1] != b[1] {
		t.Fatal("identical seeds produced different shots")
	}
}

func TestExecutorRadiationPinsQubit(t *testing.T) {
	// A unit-probability radiation event on qubit 0 resets it after
	// every gate: X|0> then gate on it -> measured 0.
	c := circuit.New(1, 1)
	c.X(0)
	c.Z(0) // extra gate so the reset after X is followed by another op
	c.Measure(0, 0)
	ev := &noise.RadiationEvent{Probs: []float64{1}}
	ex := NewExecutor(c, noise.Depolarizing{}, ev)
	for seed := uint64(0); seed < 20; seed++ {
		if bits := ex.Run(rng.New(seed)); bits[0] != 0 {
			t.Fatalf("pinned qubit measured %d", bits[0])
		}
	}
}

func TestExecutorBarrierGetsNoNoise(t *testing.T) {
	// A circuit of only barriers and one measurement: even with p=1
	// noise the measurement must read the prepared value, because
	// barriers receive no injected errors and measurement noise lands
	// after the readout.
	c := circuit.New(1, 1)
	c.X(0)
	c.Barrier()
	c.Barrier()
	c.Measure(0, 0)
	ev := &noise.RadiationEvent{Probs: []float64{1}}
	exNoRad := NewExecutor(c, noise.Depolarizing{}, nil)
	if bits := exNoRad.Run(rng.New(1)); bits[0] != 1 {
		t.Fatal("barrier altered state")
	}
	// With radiation, the reset after X still pins it to zero.
	exRad := NewExecutor(c, noise.Depolarizing{}, ev)
	if bits := exRad.Run(rng.New(1)); bits[0] != 0 {
		t.Fatal("radiation did not fire on gate")
	}
}

func TestExecutorPanicsOnSizeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewExecutor(bellCircuit(), noise.Depolarizing{}, &noise.RadiationEvent{Probs: []float64{1}})
}

func TestDepolarizingChangesOutcomes(t *testing.T) {
	// With p=1 depolarizing after every gate, the deterministic X|0>
	// measurement must flip sometimes.
	c := circuit.New(1, 1)
	c.X(0)
	c.Measure(0, 0)
	ex := NewExecutor(c, noise.NewDepolarizing(1), nil)
	zeros := 0
	for seed := uint64(0); seed < 300; seed++ {
		if bits := ex.Run(rng.New(seed)); bits[0] == 0 {
			zeros++
		}
	}
	if zeros == 0 {
		t.Fatal("full depolarizing never flipped the outcome")
	}
}

func TestCampaignCountsErrors(t *testing.T) {
	// Decode = bit 0; expected 1; pinned qubit makes every shot wrong.
	c := circuit.New(1, 1)
	c.X(0)
	c.Z(0)
	c.Measure(0, 0)
	ev := &noise.RadiationEvent{Probs: []float64{1}}
	camp := &Campaign{
		Exec:     NewExecutor(c, noise.Depolarizing{}, ev),
		Decode:   func(bits []int) int { return bits[0] },
		Expected: 1,
	}
	res := camp.Run(1, 500)
	if res.Shots != 500 || res.Errors != 500 {
		t.Fatalf("result = %+v", res)
	}
	if res.Rate() != 1 {
		t.Fatalf("rate = %v", res.Rate())
	}
}

func TestCampaignZeroShots(t *testing.T) {
	camp := &Campaign{
		Exec:     NewExecutor(bellCircuit(), noise.Depolarizing{}, nil),
		Decode:   func(bits []int) int { return bits[0] },
		Expected: 0,
	}
	res := camp.Run(1, 0)
	if res.Shots != 0 || res.Rate() != 0 {
		t.Fatalf("result = %+v", res)
	}
}

func TestCampaignRunFromPartitionsMatchRun(t *testing.T) {
	camp := &Campaign{
		Exec:     NewExecutor(bellCircuit(), noise.NewDepolarizing(0.3), nil),
		Decode:   func(bits []int) int { return bits[0] ^ bits[1] },
		Expected: 0,
	}
	whole := camp.Run(42, 1000)
	// Any partition of [0, 1000) into ranges must merge to the same
	// counts — the contract batched sweeps extend campaigns on.
	var merged Result
	for _, r := range [][2]int{{0, 100}, {100, 1}, {101, 399}, {500, 500}} {
		part := camp.RunFrom(42, r[0], r[1])
		merged.Shots += part.Shots
		merged.Errors += part.Errors
	}
	if merged != whole {
		t.Fatalf("partitioned runs %+v != whole run %+v", merged, whole)
	}
	if (camp.RunFrom(42, 10, 0) != Result{}) {
		t.Fatal("empty range produced shots")
	}
}

func TestCampaignSeedSensitivity(t *testing.T) {
	mk := func(seed uint64) Result {
		camp := &Campaign{
			Exec:     NewExecutor(bellCircuit(), noise.NewDepolarizing(0.3), nil),
			Decode:   func(bits []int) int { return bits[0] ^ bits[1] },
			Expected: 0,
		}
		return camp.Run(seed, 400)
	}
	if mk(1) == mk(2) {
		t.Log("different seeds produced identical results (possible but unlikely)")
	}
}
