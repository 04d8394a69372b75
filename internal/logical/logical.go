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

// Validate checks the model's probabilities.
func (m PatchModel) Validate() error {
	if m.LogicalErrorAtImpact < 0 || m.LogicalErrorAtImpact > 1 {
		return fmt.Errorf("logical: impact error %v outside [0,1]", m.LogicalErrorAtImpact)
	}
	if m.IdleError < 0 || m.IdleError > 1 {
		return fmt.Errorf("logical: idle error %v outside [0,1]", m.IdleError)
	}
	return nil
}

// Injector runs logical circuits where each logical qubit is a
// surface-code patch subject to post-QEC residual errors and radiation
// strikes that spread across the patch adjacency graph.
type Injector struct {
	model PatchModel
	// patchDist[q] is the patch-graph distance from the struck patch to
	// patch q (-1 when no strike is active or unreachable).
	patchDist []int
	rootProb  float64
}

// NewInjector builds an injector for the given per-patch model.
func NewInjector(model PatchModel) (*Injector, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	return &Injector{model: model}, nil
}

// SetStrike arms a radiation strike: dist[q] is the patch-adjacency
// distance from the struck patch to logical qubit q, and rootProb scales
// the event (1.0 at the moment of impact). Pass nil to disarm.
func (in *Injector) SetStrike(dist []int, rootProb float64) {
	in.patchDist = dist
	in.rootProb = rootProb
}

// flipProb returns the logical X probability applied to logical qubit q
// after one logical operation.
func (in *Injector) flipProb(q int) float64 {
	p := in.model.IdleError
	if in.patchDist != nil && q < len(in.patchDist) && in.patchDist[q] >= 0 {
		p += in.rootProb * in.model.LogicalErrorAtImpact * noise.Spatial(in.patchDist[q])
	}
	if p > 1 {
		p = 1
	}
	return p
}

// Run executes the logical circuit once, injecting logical X flips after
// each operation, and returns the classical record.
func (in *Injector) Run(c *circuit.Circuit, src *rng.Source) []int {
	tab := stab.New(c.NumQubits)
	bits := make([]int, c.NumClbits)
	for _, op := range c.Ops {
		switch op.Kind {
		case circuit.KindMeasure:
			bits[op.Clbit] = tab.MeasureZ(op.Qubits[0], src)
		case circuit.KindReset:
			tab.Reset(op.Qubits[0], src)
		case circuit.KindBarrier:
			continue
		default:
			tab.Apply(op)
		}
		for _, q := range op.Qubits {
			if src.Bool(in.flipProb(q)) {
				tab.X(q)
			}
		}
	}
	return bits
}

// Campaign estimates how often a logical circuit's output survives.
type Campaign struct {
	// Injector supplies the logical fault process.
	Injector *Injector
	// Circuit is the logical program.
	Circuit *circuit.Circuit
	// Accept decides whether a shot's classical record is correct.
	Accept func(bits []int) bool
}

// Run executes shots and returns the failure rate.
func (c *Campaign) Run(seed uint64, shots int) float64 {
	if shots <= 0 {
		return 0
	}
	master := rng.New(seed)
	failures := 0
	for s := 0; s < shots; s++ {
		bits := c.Injector.Run(c.Circuit, master.Split(uint64(s)))
		if !c.Accept(bits) {
			failures++
		}
	}
	return float64(failures) / float64(shots)
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
