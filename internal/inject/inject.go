// Package inject executes quantum circuits under the paper's combined
// noise processes — intrinsic depolarizing noise plus radiation-induced
// reset faults — and estimates post-decoding logical error rates over
// many shots. Campaigns are deterministic for a given seed however their
// shots are split into calls: every shot owns an independent RNG stream
// split from the campaign seed.
package inject

import (
	"fmt"

	"radqec/internal/circuit"
	"radqec/internal/noise"
	"radqec/internal/rng"
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
	tab := newPooledTableau(e.circ.NumQubits)
	defer releaseTableau(tab)
	bits := make([]int, e.circ.NumClbits)
	e.RunInto(src, tab, bits)
	return bits
}

// RunInto is Run with caller-provided state, for allocation-free loops.
// tab must be freshly reset to |0...0>; bits must have NumClbits slots.
func (e *Executor) RunInto(src *rng.Source, tab tableau, bits []int) {
	// Depolarizing errors are drawn by geometric skip-sampling: for small
	// P the sampler touches the RNG once per error instead of once per
	// op-qubit, while sampling the exact same error distribution.
	samp := e.samp
	samp.Reset(src)
	for _, op := range e.circ.Ops {
		switch op.Kind {
		case circuit.KindH:
			tab.H(op.Qubits[0])
		case circuit.KindX:
			tab.X(op.Qubits[0])
		case circuit.KindY:
			tab.Y(op.Qubits[0])
		case circuit.KindZ:
			tab.Z(op.Qubits[0])
		case circuit.KindS:
			tab.S(op.Qubits[0])
		case circuit.KindCNOT:
			tab.CNOT(op.Qubits[0], op.Qubits[1])
		case circuit.KindCZ:
			tab.CZ(op.Qubits[0], op.Qubits[1])
		case circuit.KindSWAP:
			tab.SWAP(op.Qubits[0], op.Qubits[1])
		case circuit.KindMeasure:
			bits[op.Clbit] = tab.MeasureZ(op.Qubits[0], src)
		case circuit.KindReset:
			tab.Reset(op.Qubits[0], src)
		case circuit.KindBarrier:
			continue // no noise on scheduling fences
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

// tableau is the minimal stabilizer-simulator surface the executor needs.
type tableau interface {
	H(q int)
	X(q int)
	Y(q int)
	Z(q int)
	S(q int)
	CNOT(a, b int)
	CZ(a, b int)
	SWAP(a, b int)
	MeasureZ(q int, src *rng.Source) int
	Reset(q int, src *rng.Source)
	ResetState()
	N() int
}

// Result summarises a campaign.
type Result struct {
	// Shots is the number of executed shots.
	Shots int
	// Errors is the number of shots whose decoded output was wrong.
	Errors int
}

// Rate returns the logical error rate.
func (r Result) Rate() float64 {
	if r.Shots == 0 {
		return 0
	}
	return float64(r.Errors) / float64(r.Shots)
}

// Campaign estimates the logical error rate of a decoded circuit under
// an executor's noise processes.
type Campaign struct {
	// Exec runs the shots.
	Exec *Executor
	// Decode maps a shot's classical record to the decoded logical
	// value.
	Decode func(bits []int) int
	// Expected is the fault-free decoded output (logical |1> = 1 in the
	// paper's protocol).
	Expected int
}

// Run executes shots shots with the given seed and returns the result:
// shot i always consumes the RNG stream split(seed, i).
func (c *Campaign) Run(seed uint64, shots int) Result {
	return c.RunFrom(seed, 0, shots)
}

// RunFrom executes the shot range [start, start+shots) of the campaign
// identified by seed, on the calling goroutine. Shot i still consumes the
// stream split(seed, i), so partitioning a campaign into ranges — however
// they are batched, or run concurrently as core.NewEngineRunner's fan-out
// does — merges to exactly the result of one Run over the whole range.
// Adaptive sweeps rely on this to extend a campaign without replaying or
// perturbing earlier shots.
func (c *Campaign) RunFrom(seed uint64, start, shots int) Result {
	if shots <= 0 {
		return Result{}
	}
	master := rng.New(seed)
	tab := newPooledTableau(c.Exec.circ.NumQubits)
	defer releaseTableau(tab)
	bits := make([]int, c.Exec.circ.NumClbits)
	total := Result{}
	for shot := start; shot < start+shots; shot++ {
		src := master.Split(uint64(shot))
		tab.ResetState()
		clear(bits)
		c.Exec.RunInto(src, tab, bits)
		total.Shots++
		if c.Decode(bits) != c.Expected {
			total.Errors++
		}
	}
	return total
}
