// Package inject executes quantum circuits under the paper's combined
// noise processes — intrinsic depolarizing noise plus radiation-induced
// reset faults — and estimates post-decoding logical error rates over
// many shots. Campaigns are deterministic for a given seed however their
// shots are split into calls: every shot owns an independent RNG stream
// split from the campaign seed.
package inject

import (
	"fmt"
	"math/bits"

	"radqec/internal/circuit"
	"radqec/internal/noise"
	"radqec/internal/rng"
	"radqec/internal/stab"
)

// Executor runs single shots of a circuit on a stabilizer tableau with
// per-gate noise injection.
type Executor struct {
	circ *circuit.Circuit
	dep  noise.Depolarizing
	rad  *noise.RadiationEvent
	// samp is the immutable skip-sampling template for the depolarizing
	// channel; each shot copies and reseeds it.
	samp noise.SkipSampler
}

// NewExecutor builds a shot executor. rad may be nil for noise-only runs.
func NewExecutor(circ *circuit.Circuit, dep noise.Depolarizing, rad *noise.RadiationEvent) *Executor {
	if rad == nil {
		rad = noise.NoRadiation(circ.NumQubits)
	}
	if len(rad.Probs) != circ.NumQubits {
		panic(fmt.Sprintf("inject: radiation table covers %d qubits, circuit has %d",
			len(rad.Probs), circ.NumQubits))
	}
	return &Executor{circ: circ, dep: dep, rad: rad, samp: dep.Skip()}
}

// Run executes one shot and returns its classical measurement record,
// freshly allocated. The caller owns src; identical sources reproduce
// identical shots. Loops over shots use RunInto.
func (e *Executor) Run(src *rng.Source) []int {
	bits := make([]int, e.circ.NumClbits)
	e.RunInto(src, stab.New(e.circ.NumQubits), bits)
	return bits
}

// RunInto is Run with caller-provided state, for allocation-free loops.
// tab must be freshly reset to |0...0>; bits must have NumClbits slots.
func (e *Executor) RunInto(src *rng.Source, tab *stab.Tableau, bits []int) {
	// Depolarizing errors are drawn by geometric skip-sampling: for small
	// P the sampler touches the RNG once per error instead of once per
	// op-qubit, while sampling the exact same error distribution.
	samp := e.samp
	samp.Reset(src)
	for _, op := range e.circ.Ops {
		switch op.Kind {
		case circuit.KindMeasure:
			bits[op.Clbit] = tab.MeasureZ(op.Qubits[0], src)
		case circuit.KindReset:
			tab.Reset(op.Qubits[0], src)
		case circuit.KindBarrier:
			continue // no noise on scheduling fences
		default:
			tab.Apply(op)
		}
		// Intrinsic depolarizing noise: an independent E channel per
		// involved qubit (E2 = E⊗E after two-qubit gates, Section III-A).
		if e.dep.P > 0 {
			for _, q := range op.Qubits {
				switch samp.Sample(src) {
				case noise.ErrX:
					tab.X(q)
				case noise.ErrY:
					tab.Y(q)
				case noise.ErrZ:
					tab.Z(q)
				}
			}
		}
		// Radiation fault: a reset follows each gate on qubit q with
		// probability p_q = F(t, d(root, q)) (Section III-B).
		for _, q := range op.Qubits {
			if e.rad.Fires(q, src) {
				tab.Reset(q, src)
			}
		}
	}
}

// Campaign estimates the logical error rate of a decoded circuit under
// an executor's noise processes.
type Campaign struct {
	// Exec runs the shots.
	Exec *Executor
	// DecodeTile maps a tile of packed classical records to decoded
	// logical words (a frame.TileDecodeFunc, e.g. qec.(*Code).DecodeTile).
	// The campaign hands it one-word tiles: rec[c] holds classical bit c
	// of the word's 64 lanes, live[0] masks the lanes that carry shots,
	// and out[0] receives their decoded values. Required.
	DecodeTile func(rec []uint64, w int, live, out []uint64)
	// Expected is the fault-free decoded output (logical |1> = 1 in the
	// paper's protocol).
	Expected int
}

// RunFrom executes the shot range [start, start+shots) of the campaign
// identified by seed, on the calling goroutine, and returns how many
// shots ran and how many decoded wrong. Shot i consumes the stream
// split(seed, i) and lives in lane i%64 of word i/64 — the batched
// engine's grid — and each word is decoded as one tile. So partitioning
// a campaign into ranges — however they are batched, or run
// concurrently as core.NewEngineRunner's fan-out does — merges to exactly
// the counts of one call over the whole range. Adaptive sweeps rely on
// this to extend a campaign without replaying or perturbing earlier
// shots.
func (c *Campaign) RunFrom(seed uint64, start, shots int) (int, int) {
	if c.DecodeTile == nil {
		panic("inject: Campaign.DecodeTile is nil")
	}
	if shots <= 0 {
		return 0, 0
	}
	expected := uint64(0)
	if c.Expected&1 == 1 {
		expected = ^uint64(0)
	}
	master := rng.New(seed)
	tab := stab.New(c.Exec.circ.NumQubits)
	shotBits := make([]int, c.Exec.circ.NumClbits)
	rec := make([]uint64, c.Exec.circ.NumClbits)
	end := start + shots
	errors := 0
	for word := start >> 6; word<<6 < end; word++ {
		clear(rec)
		var live, out [1]uint64
		for shot := max(start, word<<6); shot < min(end, word<<6+64); shot++ {
			src := master.Split(uint64(shot))
			tab.ResetState()
			clear(shotBits)
			c.Exec.RunInto(src, tab, shotBits)
			lane := uint(shot & 63)
			for i, b := range shotBits {
				rec[i] |= uint64(b&1) << lane
			}
			live[0] |= 1 << lane
		}
		c.DecodeTile(rec, 1, live[:], out[:])
		errors += bits.OnesCount64((out[0] ^ expected) & live[0])
	}
	return shots, errors
}
