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
// and branch operators as the plain facts of the circuit they are; New
// draws the seed's coins and evaluates, and runs no tableau.
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
//   - Radiation reset faults on superposed sites (XXZZ data qubits
//     inside X-plaquette extraction, mx qubits mid-plaquette): the
//     reset projects entangled partners, a nonlocal effect outside the
//     Pauli-frame formalism. The simulator approximates it at the
//     collapsed-branch level: a fair branch coin conditionally injects
//     the recorded branch operator (a reference stabilizer
//     anti-commuting with Z on the struck site), so entangled partners
//     take correlated damage, and the struck site is then pinned to
//     |0>. The residual error is the difference between the projected
//     and unprojected reference trajectory; the tableau engine
//     (package inject) remains the oracle for faithful heavy-radiation
//     XXZZ campaigns.
package frame

import (
	"fmt"

	"radqec/internal/circuit"
	"radqec/internal/noise"
	"radqec/internal/rng"
	"radqec/internal/stab"
)

// Simulator samples shots of one circuit under depolarizing noise and a
// radiation event, using Pauli-frame propagation.
type Simulator struct {
	circ *circuit.Circuit
	dep  noise.Depolarizing
	rad  *noise.RadiationEvent
	// samp is the immutable skip-sampling template for the depolarizing
	// channel; each shot copies and reseeds it.
	samp noise.SkipSampler
	// comp is the circuit's compiled reference: everything about the
	// noiseless execution that no seed changes, shared by every
	// simulator of the circuit. Its branch operator of a superposed
	// site (a reference stabilizer anti-commuting with Z on the struck
	// qubit) is what a firing reset injects on a fair coin.
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
}

// New builds a frame simulator. The reference execution is the
// circuit's compiled reference (stab.CompiledOf, built once per
// circuit) evaluated at the coins of the stream seeded by refSeed — the
// record and Z-values a tableau run with that seed would give, with no
// tableau run here; rad may be nil.
func New(circ *circuit.Circuit, dep noise.Depolarizing, rad *noise.RadiationEvent, refSeed uint64) *Simulator {
	if rad == nil {
		rad = noise.NoRadiation(circ.NumQubits)
	}
	if len(rad.Probs) != circ.NumQubits {
		panic(fmt.Sprintf("frame: radiation table covers %d qubits, circuit has %d",
			len(rad.Probs), circ.NumQubits))
	}
	comp := stab.CompiledOf(circ)
	coins := comp.Coins(refSeed)
	s := &Simulator{
		circ:  circ,
		dep:   dep,
		rad:   rad,
		samp:  dep.Skip(),
		comp:  comp,
		ref:   comp.Reference(coins),
		fires: make([]bool, len(circ.Ops)),
		refZ:  make([]int8, comp.NumSites),
	}
	// Wherever a radiation reset could strike, evaluate the reference
	// Z-value of the struck qubit (needed to express the reset fault as
	// a Pauli frame update); on superposed sites the compiled branch
	// operator carries the projection's correlated damage to entangled
	// partners.
	for i, op := range circ.Ops {
		if !s.mayFire(op) {
			continue
		}
		s.fires[i] = true
		base := comp.SiteBase[i]
		for j := range op.Qubits {
			s.refZ[base+j] = int8(comp.SiteZ(base+j, coins)) // +1 |0>, -1 |1>, 0 superposed
		}
	}
	return s
}

// mayFire reports whether the radiation event can strike any qubit of
// the op (so reference Z-values are only recorded where needed).
func (s *Simulator) mayFire(op circuit.Op) bool {
	if op.Kind == circuit.KindBarrier {
		return false
	}
	for _, q := range op.Qubits {
		if q < len(s.rad.Probs) && s.rad.Probs[q] > 0 {
			return true
		}
	}
	return false
}

// Frame is the per-shot Pauli deviation state; reusable across shots.
type Frame struct {
	x, z []uint64
}

// NewFrame allocates a frame for n qubits.
func NewFrame(n int) *Frame {
	words := (n + 63) / 64
	if words == 0 {
		words = 1
	}
	return &Frame{x: make([]uint64, words), z: make([]uint64, words)}
}

// Clear zeroes the frame for reuse.
func (f *Frame) Clear() {
	for i := range f.x {
		f.x[i] = 0
		f.z[i] = 0
	}
}

func (f *Frame) getX(q int) uint64 { return (f.x[q/64] >> (q % 64)) & 1 }
func (f *Frame) flipX(q int)       { f.x[q/64] ^= 1 << (q % 64) }
func (f *Frame) flipZ(q int)       { f.z[q/64] ^= 1 << (q % 64) }
func (f *Frame) clearQ(q int) {
	mask := ^(uint64(1) << (q % 64))
	f.x[q/64] &= mask
	f.z[q/64] &= mask
}

// swapXZ exchanges the X and Z frame bits of q (Hadamard conjugation).
func (f *Frame) swapXZ(q int) {
	w, b := q/64, uint(q%64)
	xb := (f.x[w] >> b) & 1
	zb := (f.z[w] >> b) & 1
	if xb != zb {
		f.x[w] ^= 1 << b
		f.z[w] ^= 1 << b
	}
}

// collapseZ re-randomises the Z frame bit of q at a collapse point: the
// qubit is a Z eigenstate there, so the injection is physically a no-op
// that decorrelates downstream branch labels from the reference (see
// the package comment). Skipped for circuits without H, where the coin
// could never reach an X plane.
func (s *Simulator) collapseZ(src *rng.Source, f *Frame, q int) {
	if !s.comp.HasH {
		return
	}
	w, b := q/64, uint(q%64)
	f.z[w] &^= 1 << b
	f.z[w] |= (src.Uint64() & 1) << b
}

// Run executes one shot into bits (length NumClbits). The frame is
// cleared first, so frames can be reused across shots.
func (s *Simulator) Run(src *rng.Source, f *Frame, bits []int) {
	f.Clear()
	if s.comp.HasH {
		// State preparation is a collapse point for every qubit.
		for w := range f.z {
			f.z[w] = src.Uint64()
		}
	}
	samp := s.samp
	samp.Reset(src)
	for i, op := range s.circ.Ops {
		switch op.Kind {
		case circuit.KindH:
			f.swapXZ(op.Qubits[0])
		case circuit.KindS:
			// S: X -> Y (adds a Z component); Z unchanged.
			if f.getX(op.Qubits[0]) == 1 {
				f.flipZ(op.Qubits[0])
			}
		case circuit.KindX, circuit.KindY, circuit.KindZ:
			// Deterministic circuit Paulis are part of the reference;
			// they commute with the frame up to global phase.
		case circuit.KindCNOT:
			c, t := op.Qubits[0], op.Qubits[1]
			if f.getX(c) == 1 {
				f.flipX(t)
			}
			if (f.z[t/64]>>(t%64))&1 == 1 {
				f.flipZ(c)
			}
		case circuit.KindCZ:
			a, b := op.Qubits[0], op.Qubits[1]
			if f.getX(a) == 1 {
				f.flipZ(b)
			}
			if f.getX(b) == 1 {
				f.flipZ(a)
			}
		case circuit.KindSWAP:
			a, b := op.Qubits[0], op.Qubits[1]
			xa, xb := f.getX(a), f.getX(b)
			if xa != xb {
				f.flipX(a)
				f.flipX(b)
			}
			za := (f.z[a/64] >> (a % 64)) & 1
			zb := (f.z[b/64] >> (b % 64)) & 1
			if za != zb {
				f.flipZ(a)
				f.flipZ(b)
			}
		case circuit.KindMeasure:
			q := op.Qubits[0]
			k := s.ref.MeasIndex[i]
			bits[op.Clbit] = s.ref.Record[k] ^ int(f.getX(q))
			// Only a non-deterministic measurement collapses anything:
			// measuring a Z eigenstate leaves the state — and therefore
			// the deviation — untouched, so the reference determinism
			// flag decides where the fresh branch coin is injected.
			if !s.ref.Deterministic[k] {
				s.collapseZ(src, f, q)
			}
		case circuit.KindReset:
			// Reset erases any deviation on the qubit, then collapses.
			f.clearQ(op.Qubits[0])
			s.collapseZ(src, f, op.Qubits[0])
		case circuit.KindBarrier:
			continue
		}
		// Intrinsic depolarizing noise toggles frame bits.
		if s.dep.P > 0 {
			for _, q := range op.Qubits {
				switch samp.Sample(src) {
				case noise.ErrX:
					f.flipX(q)
				case noise.ErrY:
					f.flipX(q)
					f.flipZ(q)
				case noise.ErrZ:
					f.flipZ(q)
				}
			}
		}
		// Radiation reset faults pin the actual qubit to |0>. Relative
		// to the reference, which holds Z-value v at this site, the
		// pinned state is X^[v=1] times the reference, so the frame is
		// erased and its X bit set from v. On superposed reference sites
		// (v unknown: non-CSS-aligned qubits mid-plaquette) a fair coin
		// picks the collapse branch and conditionally injects the
		// recorded branch operator, spreading the projection's damage to
		// entangled partners before the struck site is pinned.
		if s.fires[i] {
			base := s.comp.SiteBase[i]
			for j, q := range op.Qubits {
				if !s.rad.Fires(q, src) {
					continue
				}
				switch s.refZ[base+j] {
				case -1: // reference holds |1>, actual pinned to |0>
					f.clearQ(q)
					f.flipX(q)
				case 1:
					f.clearQ(q)
				case 0:
					if src.Uint64()&1 == 1 {
						br := s.comp.Branch(base + j)
						for _, a := range br.Xs {
							f.flipX(a)
						}
						for _, a := range br.Zs {
							f.flipZ(a)
						}
					}
					f.clearQ(q)
				}
				s.collapseZ(src, f, q)
			}
		}
	}
}
