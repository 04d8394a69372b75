package frame

import (
	"radqec/internal/circuit"
	"radqec/internal/noise"
	"radqec/internal/rng"
)

// scalarSim is the scalar Pauli-frame engine, the oracle the batch
// kernel is checked against: it reads the embedded BatchSimulator's
// reference precompute (circuit, compiled reference — struck at the
// event's saturated qubits where NewBatch struck it — record, strike
// sites and their reference Z-values) and samples one shot at a time
// from per-shot streams, so it shares the kernel's physics, collapsed-
// branch approximation included, and none of its sampling.
type scalarSim struct {
	*BatchSimulator
	dep noise.Depolarizing
	rad *noise.RadiationEvent
	// samp is the immutable skip-sampling template for the depolarizing
	// channel; each shot copies and reseeds it.
	samp noise.SkipSampler
}

// newScalar builds the oracle over NewBatch of the same arguments; its
// embedded BatchSimulator is the batch engine of that setup.
func newScalar(circ *circuit.Circuit, dep noise.Depolarizing, rad *noise.RadiationEvent, refSeed uint64) *scalarSim {
	b := NewBatch(circ, dep, rad, refSeed)
	if rad == nil {
		rad = noise.NoRadiation(circ.NumQubits)
	}
	return &scalarSim{BatchSimulator: b, dep: dep, rad: rad, samp: dep.Skip()}
}

// shotFrame is the per-shot Pauli deviation state; reusable across shots.
type shotFrame struct {
	x, z []uint64
}

// newShotFrame allocates a frame for n qubits.
func newShotFrame(n int) *shotFrame {
	words := (n + 63) / 64
	if words == 0 {
		words = 1
	}
	return &shotFrame{x: make([]uint64, words), z: make([]uint64, words)}
}

// Clear zeroes the frame for reuse.
func (f *shotFrame) Clear() {
	for i := range f.x {
		f.x[i] = 0
		f.z[i] = 0
	}
}

func (f *shotFrame) getX(q int) uint64 { return (f.x[q/64] >> (q % 64)) & 1 }
func (f *shotFrame) flipX(q int)       { f.x[q/64] ^= 1 << (q % 64) }
func (f *shotFrame) flipZ(q int)       { f.z[q/64] ^= 1 << (q % 64) }
func (f *shotFrame) clearQ(q int) {
	mask := ^(uint64(1) << (q % 64))
	f.x[q/64] &= mask
	f.z[q/64] &= mask
}

// swapXZ exchanges the X and Z frame bits of q (Hadamard conjugation).
func (f *shotFrame) swapXZ(q int) {
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
func (s *scalarSim) collapseZ(src *rng.Source, f *shotFrame, q int) {
	if !s.comp.HasH {
		return
	}
	w, b := q/64, uint(q%64)
	f.z[w] &^= 1 << b
	f.z[w] |= (src.Uint64() & 1) << b
}

// Run executes one shot into bits (length NumClbits). The frame is
// cleared first, so frames can be reused across shots.
func (s *scalarSim) Run(src *rng.Source, f *shotFrame, bits []int) {
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
						br, _ := s.comp.Branch(base + j)
						for _, a := range br.Xs {
							f.flipX(int(a))
						}
						for _, a := range br.Zs {
							f.flipZ(int(a))
						}
					}
					f.clearQ(q)
				}
				s.collapseZ(src, f, q)
			}
		}
	}
}

// scalarCampaign estimates logical error rates with the scalar oracle;
// it mirrors inject.Campaign (same seed → shot stream mapping) but
// decodes shot by shot.
type scalarCampaign struct {
	// Sim samples the shots.
	Sim *scalarSim
	// Decode maps a shot's classical record to the decoded logical value.
	Decode func(bits []int) int
	// Expected is the fault-free decoded output.
	Expected int
}

// RunFrom executes the shot range [start, start+shots) and returns its
// (shots, errors) counts; shot i consumes stream split(seed, i), so
// batched extensions of a campaign merge to exactly one call over the
// whole range.
func (c *scalarCampaign) RunFrom(seed uint64, start, shots int) (int, int) {
	master := rng.New(seed)
	f := newShotFrame(c.Sim.circ.NumQubits)
	bits := make([]int, c.Sim.circ.NumClbits)
	errors := 0
	for shot := start; shot < start+shots; shot++ {
		clear(bits)
		c.Sim.Run(master.Split(uint64(shot)), f, bits)
		if c.Decode(bits) != c.Expected {
			errors++
		}
	}
	return max(shots, 0), errors
}

// tally is a campaign range's counts, as the tests compare them.
type tally struct{ Shots, Errors int }

// tallyOf packs a RunFrom's (shots, errors) counts.
func tallyOf(shots, errors int) tally { return tally{shots, errors} }

// Rate returns the logical error rate.
func (t tally) Rate() float64 {
	if t.Shots == 0 {
		return 0
	}
	return float64(t.Errors) / float64(t.Shots)
}
