// Package frame implements Pauli-frame simulation, the fast sampling
// backend used by modern QEC simulators (e.g. Stim): instead of
// evolving a full stabilizer tableau per shot, one noiseless reference
// execution is recorded once, and each noisy shot only propagates the
// Pauli deviation ("frame") caused by injected errors through the
// Clifford circuit. Gates cost O(1) per qubit-word instead of O(n), and
// measurements O(1) instead of O(n²).
//
// "Once" is once per circuit, not once per simulator: one reference is
// compiled per circuit and evaluated per seed. A simulator's reference
// is the tableau run at its reference seed, but in that run only the
// sign bits depend on the measurement coins, and affinely over GF(2):
// gates XOR bit-determined constants into signs, rowsum XORs two signs
// and a bit-determined phase, a random measurement sets a sign to a
// fresh coin, a reset XORs its outcome into the signs of the rows with
// a Z on the qubit. stab.Compile records the record and every site's
// Z-value as such forms, and the determinism flags, superposed sites
// and branch operators as the plain facts of the circuit they are;
// NewBatch draws the seed's coins and evaluates, and runs no tableau.
//
// The engine is universal over the Clifford set: H, S, CX, CZ, SWAP,
// Paulis, measurement and reset are all propagated exactly. Measurement
// sampling follows Stim's reference-record construction — a shot's
// outcome is the reference outcome XOR the frame's X component, and the
// frame's Z component is re-randomised at every collapse point: state
// preparation, each reset, and each measurement whose reference outcome
// is non-deterministic (per-measurement flags of the compiled
// reference; a deterministic measurement reads a Z eigenstate and
// collapses nothing). Injecting a 50% Z there
// is physically a no-op (the qubit is a Z eigenstate) but decorrelates
// the branch labels of non-deterministic measurements from the
// reference branch, so the sampled records follow the exact joint
// outcome distribution of the tableau engine for Pauli (depolarizing)
// noise on any Clifford circuit. Circuits without H never move Z frame
// bits into X, so the collapse coins are skipped there and the
// computational-basis fast path is untouched.
//
// Validity domain:
//
//   - Pauli (depolarizing) noise on any Clifford circuit: exact, raw
//     bitstrings included.
//   - Radiation reset faults at sites where the reference state is a
//     Z eigenstate: exact (the reset deviation is X^[ref=1], computed
//     from recorded reference Z-values). The repetition family has only
//     such sites, so its radiation campaigns are frame-exact.
//   - Saturated strikes (probability 1) anywhere: exact. The strike
//     fires on every shot, so it is part of the noiseless execution:
//     NewBatch runs on the reference struck at the event's saturated
//     qubits (stab.StruckOf), whose sites there are Z eigenstates, and
//     the fired strike is the plain reset above. Fig. 6's erasures,
//     fig7's erasure sets and the root of every full-impact strike
//     are such strikes.
//   - Fractional strikes (0 < p < 1) on superposed sites (XXZZ data
//     qubits inside X-plaquette extraction, mx qubits mid-plaquette):
//     the reset projects entangled partners on some shots only, a
//     nonlocal effect outside the Pauli-frame formalism. The simulator
//     approximates it at the collapsed-branch level: a fair branch coin
//     conditionally injects the recorded branch operator (a reference
//     stabilizer anti-commuting with Z on the struck site), so entangled
//     partners take correlated damage, and the struck site is then
//     pinned to |0>. The residual error is the difference between the
//     projected and unprojected reference trajectory; the tableau
//     engine (package inject) remains the oracle for the spreading
//     neighbours and temporal tails of XXZZ strikes.
//
// The package's tests keep a scalar one-shot-at-a-time engine over the
// same reference (scalar_test.go) as an independent sampler of this
// physics to check the bit-parallel kernel against.
package frame

import (
	"fmt"

	"radqec/internal/circuit"
	"radqec/internal/noise"
	"radqec/internal/stab"
)

// BatchSimulator samples shots of one circuit under depolarizing noise
// and a radiation event by bit-parallel Pauli-frame propagation: one
// uint64 word carries the same frame bit across 64 shots ("lanes"), so
// every Clifford gate is a handful of branchless word operations and a
// whole word of shots costs barely more than one shot would:
//
//   - Frame state is stored shot-major as bit-planes x[qubit], z[qubit],
//     each word holding the frame bit of 64 concurrent shots.
//   - Both noise channels are Bernoulli(p) processes over (site, lane)
//     bits, and one rule, decided once per simulator from p alone — for
//     the depolarizing rate and for each distinct strike probability —
//     picks how each is sampled (noise.LaneSampler): p <= 0
//     never fires and p >= 1 fires every lane, neither drawing
//     anything; p < 1/32 — fewer than two expected events per 64-lane
//     word — walks geometric gaps with a persistent cursor, so a site
//     costs a compare-and-subtract and only an actual event costs a
//     draw; anything denser takes one rng.BernoulliWord per site
//     (~7.5 RNG words whatever p is, drawn on register-resident
//     generator state against a threshold quantised once per sampler). The paper's strikes are sparse by
//     construction (e^-k over the temporal samples, 1/(d+1)² with
//     distance: 78% of fig5's struck site-words sit below 1/32, 88% of
//     fig8's), the saturating root of fig6 is p = 1, and intrinsic
//     noise at the paper's 1% is a gap process; only p >= 1/32
//     depolarizing (threshold's 0.1 column) and the first temporal
//     samples near the root use the word arm. The boundary is a
//     measured, flat basin (see noise.LaneSampler), not a knob.
//   - A depolarizing event draws its Pauli uniformly: one Intn(3) per
//     event on the gap arm, noise.PauliWords for a whole error word on
//     the dense arms.
//   - Measurement records are emitted as bit-packed words (one uint64
//     per classical bit and tile word), ready for word-parallel
//     decoding (qec.(*Code).DecodeTile).
type BatchSimulator struct {
	circ *circuit.Circuit
	// comp is the circuit's compiled reference, struck at the event's
	// saturated qubits where that matters: everything about the
	// noiseless execution that no seed changes, shared by every
	// simulator of the circuit and event's saturated set. Its branch
	// operator of a superposed site (a reference stabilizer
	// anti-commuting with Z on the struck qubit) is what a firing
	// fractional reset injects on a fair coin.
	comp *stab.Compiled
	// ref is comp evaluated at the reference seed: the measurement
	// record, with comp's determinism flags and op mapping.
	ref *stab.Reference
	// fires[i] reports whether the radiation event can strike a qubit
	// of op i.
	fires []bool
	// refZ[comp.SiteBase[i]+j] is the reference Z-expectation (+1, -1,
	// or 0 for superposed) of op i's j-th qubit right after the op,
	// filled only where fires[i].
	refZ []int8
	// dep is the regime rule applied to the depolarizing rate.
	dep noise.LaneSampler
	// strikes holds the rule applied to each distinct strike
	// probability of the event, and strike[q] indexes qubit q's. Qubits
	// struck with one probability (one distance from the root) are one
	// Bernoulli process over their merged sites, so they share a
	// sampler and, on the gap arm, one cursor per tile word.
	strikes []noise.LaneSampler
	strike  []int32
}

// NewBatch builds the simulator. The reference execution is the
// circuit's compiled reference (stab.CompiledOf, built once per circuit)
// evaluated at the coins of the stream seeded by refSeed — the record
// and Z-values a tableau run with that seed would give, with no tableau
// run here; rad may be nil. Qubits the event strikes with probability
// 1 are reset in the reference itself (stab.StruckOf, once per circuit
// and saturated set), so their sites read +1 and a fired strike there
// is exactly a reset, wherever the unstruck reference was superposed.
func NewBatch(circ *circuit.Circuit, dep noise.Depolarizing, rad *noise.RadiationEvent, refSeed uint64) *BatchSimulator {
	if rad == nil {
		rad = noise.NoRadiation(circ.NumQubits)
	}
	if len(rad.Probs) != circ.NumQubits {
		panic(fmt.Sprintf("frame: radiation table covers %d qubits, circuit has %d",
			len(rad.Probs), circ.NumQubits))
	}
	comp := stab.CompiledOf(circ)
	if sat := saturated(rad); sat != nil {
		comp = stab.StruckOf(circ, sat)
	}
	coins := comp.Coins(refSeed)
	s := &BatchSimulator{
		circ:   circ,
		comp:   comp,
		ref:    comp.Reference(coins),
		fires:  make([]bool, len(circ.Ops)),
		refZ:   make([]int8, comp.NumSites),
		dep:    noise.Lanes(dep.P),
		strike: make([]int32, len(rad.Probs)),
	}
	// Wherever a radiation reset could strike, evaluate the reference
	// Z-value of the struck qubit (needed to express the reset fault as
	// a Pauli frame update); on superposed sites the compiled branch
	// operator carries the projection's correlated damage to entangled
	// partners.
	for i, op := range circ.Ops {
		if !mayFire(op, rad) {
			continue
		}
		s.fires[i] = true
		base := comp.SiteBase[i]
		for j := range op.Qubits {
			s.refZ[base+j] = int8(comp.SiteZ(base+j, coins)) // +1 |0>, -1 |1>, 0 superposed
		}
	}
	distinct := make([]float64, 0, 16) // a spreading strike has one per distance
	for q, p := range rad.Probs {
		c := 0
		for c < len(distinct) && distinct[c] != p {
			c++
		}
		if c == len(distinct) {
			distinct = append(distinct, p)
			s.strikes = append(s.strikes, noise.Lanes(p))
		}
		s.strike[q] = int32(c)
	}
	return s
}

// saturated marks the qubits the event strikes with certainty, or
// returns nil when there are none.
func saturated(rad *noise.RadiationEvent) []bool {
	var sat []bool
	for q, p := range rad.Probs {
		if p >= 1 {
			if sat == nil {
				sat = make([]bool, len(rad.Probs))
			}
			sat[q] = true
		}
	}
	return sat
}

// mayFire reports whether the radiation event can strike any qubit of
// the op (so reference Z-values are only recorded where needed).
func mayFire(op circuit.Op, rad *noise.RadiationEvent) bool {
	if op.Kind == circuit.KindBarrier {
		return false
	}
	for _, q := range op.Qubits {
		if q < len(rad.Probs) && rad.Probs[q] > 0 {
			return true
		}
	}
	return false
}
