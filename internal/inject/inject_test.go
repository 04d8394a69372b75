package inject

import (
	"math/bits"
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

// bit0Tile decodes each lane as its classical bit 0; parityTile as the
// parity of bits 0 and 1 (the Bell pair's correlation).
func bit0Tile(rec []uint64, w int, _, out []uint64) { copy(out[:w], rec[:w]) }

func parityTile(rec []uint64, w int, _, out []uint64) {
	for k := 0; k < w; k++ {
		out[k] = rec[k] ^ rec[w+k]
	}
}

// laneLog wraps a tile decoder and records the live mask of every word
// it is handed, so a test sees which lanes each call decoded.
type laneLog struct {
	dec   func(rec []uint64, w int, live, out []uint64)
	masks []uint64
}

func (l *laneLog) decodeTile(rec []uint64, w int, live, out []uint64) {
	l.masks = append(l.masks, live[:w]...)
	l.dec(rec, w, live, out)
}

func TestCampaignCountsErrors(t *testing.T) {
	// Decode = bit 0; expected 1; pinned qubit makes every shot wrong.
	c := circuit.New(1, 1)
	c.X(0)
	c.Z(0)
	c.Measure(0, 0)
	ev := &noise.RadiationEvent{Probs: []float64{1}}
	camp := &Campaign{
		Exec:       NewExecutor(c, noise.Depolarizing{}, ev),
		DecodeTile: bit0Tile,
		Expected:   1,
	}
	if shots, errors := camp.RunFrom(1, 0, 500); shots != 500 || errors != 500 {
		t.Fatalf("counts = (%d, %d), want (500, 500)", shots, errors)
	}
}

func TestCampaignZeroShots(t *testing.T) {
	log := &laneLog{dec: bit0Tile}
	camp := &Campaign{
		Exec:       NewExecutor(bellCircuit(), noise.Depolarizing{}, nil),
		DecodeTile: log.decodeTile,
		Expected:   0,
	}
	if shots, errors := camp.RunFrom(1, 10, 0); shots != 0 || errors != 0 || len(log.masks) != 0 {
		t.Fatalf("empty range: counts (%d, %d), %d decoded words", shots, errors, len(log.masks))
	}
}

// TestCampaignMatchesScalarReference: packing shots into words and
// decoding each word as a tile counts exactly the errors of running and
// decoding every shot on its own, shot i on stream split(seed, i).
func TestCampaignMatchesScalarReference(t *testing.T) {
	circ := bellCircuit()
	ex := NewExecutor(circ, noise.NewDepolarizing(0.3), nil)
	camp := &Campaign{Exec: ex, DecodeTile: parityTile, Expected: 0}
	master := rng.New(42)
	for _, r := range [][2]int{{0, 1000}, {37, 130}, {100, 1}, {63, 2}} {
		want := 0
		for shot := r[0]; shot < r[0]+r[1]; shot++ {
			if bits := ex.Run(master.Split(uint64(shot))); bits[0]^bits[1] != 0 {
				want++
			}
		}
		if shots, errors := camp.RunFrom(42, r[0], r[1]); shots != r[1] || errors != want {
			t.Fatalf("%v: counts (%d, %d), scalar reference (%d, %d)", r, shots, errors, r[1], want)
		}
	}
}

// TestCampaignWordPacking: shot i lives in lane i%64 of word i/64, each
// word is decoded once, and only the lanes of the range are live — so a
// range that starts and ends mid-word decodes exactly its own lanes, a
// lane dropped or decoded twice showing in the masks.
func TestCampaignWordPacking(t *testing.T) {
	all := ^uint64(0)
	for _, tc := range []struct {
		start, shots int
		masks        []uint64
	}{
		{37, 130, []uint64{all << 37, all, all >> (63 - 38)}},
		{100, 1, []uint64{1 << 36}},
		{63, 2, []uint64{1 << 63, 1}},
		{128, 64, []uint64{all}},
	} {
		log := &laneLog{dec: parityTile}
		camp := &Campaign{
			Exec:       NewExecutor(bellCircuit(), noise.NewDepolarizing(0.3), nil),
			DecodeTile: log.decodeTile,
			Expected:   0,
		}
		camp.RunFrom(42, tc.start, tc.shots)
		if len(log.masks) != len(tc.masks) {
			t.Fatalf("[%d, %d): %d decoded words, want %d", tc.start, tc.start+tc.shots, len(log.masks), len(tc.masks))
		}
		for i, m := range log.masks {
			if m != tc.masks[i] {
				t.Fatalf("[%d, %d): word %d live %#x, want %#x", tc.start, tc.start+tc.shots, i, m, tc.masks[i])
			}
		}
	}
}

func TestCampaignRunFromPartitionsMatchRun(t *testing.T) {
	log := &laneLog{dec: parityTile}
	camp := &Campaign{
		Exec:       NewExecutor(bellCircuit(), noise.NewDepolarizing(0.3), nil),
		DecodeTile: log.decodeTile,
		Expected:   0,
	}
	wholeShots, wholeErrors := camp.RunFrom(42, 0, 1000)
	// Any partition of [0, 1000) into ranges — word-aligned or cut
	// mid-word — must merge to the same counts, the contract batched
	// sweeps extend campaigns on, and decode every lane exactly once.
	log.masks = nil
	var shots, errors int
	for _, r := range [][2]int{{0, 37}, {37, 130}, {167, 1}, {168, 232}, {400, 600}} {
		s, e := camp.RunFrom(42, r[0], r[1])
		shots += s
		errors += e
	}
	if shots != wholeShots || errors != wholeErrors {
		t.Fatalf("partitioned runs (%d, %d) != whole run (%d, %d)", shots, errors, wholeShots, wholeErrors)
	}
	decoded := 0
	for _, m := range log.masks {
		decoded += bits.OnesCount64(m)
	}
	if decoded != 1000 {
		t.Fatalf("partitioned runs decoded %d lanes, want 1000", decoded)
	}
}

func TestCampaignSeedSensitivity(t *testing.T) {
	mk := func(seed uint64) int {
		camp := &Campaign{
			Exec:       NewExecutor(bellCircuit(), noise.NewDepolarizing(0.3), nil),
			DecodeTile: parityTile,
			Expected:   0,
		}
		_, errors := camp.RunFrom(seed, 0, 400)
		return errors
	}
	if mk(1) == mk(2) {
		t.Log("different seeds produced identical results (possible but unlikely)")
	}
}
