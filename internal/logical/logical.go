// Package logical implements the paper's stated future-work direction
// (Section VI): propagating the measured post-QEC logical error rates
// into the logical layer of a quantum program. Each logical qubit is one
// encoded surface-code patch; after every logical operation the patch
// suffers a logical X flip with the probability extracted from the
// physical-level radiation campaigns, and a strike on one patch spreads
// to neighbouring patches following the same spatial damping law used at
// the physical level.
//
// The simulation is at the logical Clifford level (logical states evolve
// through the same stabilizer simulator), so the package answers
// questions like: "given the post-QEC logical error rates of Figure 8,
// how often does a logical GHZ preparation survive a radiation event?"
package logical

import (
	"fmt"
	"slices"

	"radqec/internal/circuit"
	"radqec/internal/noise"
	"radqec/internal/rng"
	"radqec/internal/stab"
)

// PatchModel describes one encoded logical qubit's response to a
// radiation event, as extracted from the physical campaigns.
type PatchModel struct {
	// LogicalErrorAtImpact is the post-QEC logical error probability of
	// the patch when a particle strikes it directly (e.g. the Figure 8
	// per-root medians).
	LogicalErrorAtImpact float64
	// IdleError is the per-operation logical error floor away from any
	// strike (intrinsic noise residual after QEC).
	IdleError float64
}

// Validate checks the model's probabilities, so that NaN fails too: a
// NaN rate would otherwise act as 0, since rng.Bool(NaN) never fires.
func (m PatchModel) Validate() error {
	if !(m.LogicalErrorAtImpact >= 0 && m.LogicalErrorAtImpact <= 1) {
		return fmt.Errorf("logical: impact error %v outside [0,1]", m.LogicalErrorAtImpact)
	}
	if !(m.IdleError >= 0 && m.IdleError <= 1) {
		return fmt.Errorf("logical: idle error %v outside [0,1]", m.IdleError)
	}
	return nil
}

// Injector is one logical fault process: post-QEC residual errors on
// every patch and, when struck, a radiation event spreading across the
// patch adjacency graph. It never changes, so campaigns may share one.
type Injector struct {
	model PatchModel
	// patchDist[q] is the patch-graph distance from the struck patch to
	// patch q (-1 when unreachable); nil when no strike is armed.
	patchDist []int
}

// NewInjector builds the fault process of a per-patch model, with no
// strike.
func NewInjector(model PatchModel) (*Injector, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	return &Injector{model: model}, nil
}

// Struck returns the injector's model under a strike at the moment of
// impact: dist[q] is the patch-adjacency distance from the struck patch
// to logical qubit q. The receiver is unchanged.
func (in *Injector) Struck(dist []int) *Injector {
	return &Injector{model: in.model, patchDist: slices.Clone(dist)}
}

// flipProb returns the logical X probability applied to logical qubit q
// after one logical operation.
func (in *Injector) flipProb(q int) float64 {
	p := in.model.IdleError
	if q < len(in.patchDist) && in.patchDist[q] >= 0 {
		p += in.model.LogicalErrorAtImpact * noise.Spatial(in.patchDist[q])
	}
	return min(p, 1)
}

// Campaign estimates how often a logical circuit's output survives one
// fault process.
type Campaign struct {
	// Injector supplies the logical fault process.
	Injector *Injector
	// Circuit is the logical program.
	Circuit *circuit.Circuit
	// Accept decides whether a shot's classical record is correct.
	Accept func(bits []int) bool
}

// RunFrom runs shots [start, start+shots) of the campaign at seed on the
// calling goroutine, one tableau and one record per call, injecting
// logical X flips after each operation; it returns the shots run and the
// records Accept rejected. Shot i draws from split(seed, i) alone: the
// sweep.BatchRunner range contract.
func (c *Campaign) RunFrom(seed uint64, start, shots int) (int, int) {
	master := rng.New(seed)
	var src rng.Source
	tab := stab.New(c.Circuit.NumQubits)
	bits := make([]int, c.Circuit.NumClbits)
	failures := 0
	for s := start; s < start+shots; s++ {
		master.SplitInto(uint64(s), &src)
		tab.ResetState()
		clear(bits)
		for _, op := range c.Circuit.Ops {
			switch op.Kind {
			case circuit.KindMeasure:
				bits[op.Clbit] = tab.MeasureZ(op.Qubits[0], &src)
			case circuit.KindReset:
				tab.Reset(op.Qubits[0], &src)
			case circuit.KindBarrier:
				continue
			default:
				tab.Apply(op)
			}
			for _, q := range op.Qubits {
				if src.Bool(c.Injector.flipProb(q)) {
					tab.X(q)
				}
			}
		}
		if !c.Accept(bits) {
			failures++
		}
	}
	return max(shots, 0), failures
}

// GHZCircuit prepares an n-qubit logical GHZ state and measures every
// qubit: the canonical multi-patch workload whose output is all-equal
// bitstrings.
func GHZCircuit(n int) *circuit.Circuit {
	c := circuit.New(n, n)
	c.AddQReg("logical", n)
	c.AddCReg("m", n)
	c.H(0)
	for q := 0; q+1 < n; q++ {
		c.CNOT(q, q+1)
	}
	for q := 0; q < n; q++ {
		c.Measure(q, q)
	}
	return c
}

// GHZAccept reports whether a GHZ record is all zeros or all ones.
func GHZAccept(bits []int) bool {
	for _, b := range bits[1:] {
		if b != bits[0] {
			return false
		}
	}
	return true
}

// TeleportCircuit builds the standard one-qubit teleportation circuit
// over three logical patches with classically-controlled corrections
// replaced by deferred-measurement CZ/CNOT (Clifford-friendly): the
// state X|0> = |1> prepared on patch 0 must arrive on patch 2.
func TeleportCircuit() *circuit.Circuit {
	c := circuit.New(3, 3)
	c.AddQReg("logical", 3)
	c.AddCReg("m", 3)
	c.X(0) // state to teleport: |1>
	// Bell pair between 1 and 2.
	c.H(1)
	c.CNOT(1, 2)
	// Bell measurement of 0 and 1, deferred: controlled corrections
	// applied before measuring.
	c.CNOT(0, 1)
	c.H(0)
	c.CNOT(1, 2)
	c.CZ(0, 2)
	c.Measure(0, 0)
	c.Measure(1, 1)
	c.Measure(2, 2)
	return c
}

// TeleportAccept reports whether the teleported qubit (bit 2) reads 1.
func TeleportAccept(bits []int) bool { return bits[2] == 1 }
