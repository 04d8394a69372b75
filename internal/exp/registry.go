package exp

import "radqec/internal/sweep"

// Experiment is one runnable experiment of the paper's evaluation —
// the registry entry shared by the CLI and the campaign daemon, so
// both front-ends expose exactly the same workloads.
type Experiment struct {
	// Name is the CLI argument / API experiment identifier.
	Name string
	// Desc is the one-line human description.
	Desc string
	// Run produces the experiment's table under the given config, and
	// is the only way an experiment runs. Unset fields take
	// Config.Defaults, a config outside the domain is Config.Validate's
	// error, and a cancelled Context ends the run with its cause.
	Run func(Config) (*Table, error)
	// XXZZRad marks experiments whose campaigns include fractional
	// (0 < p < 1) radiation strikes on XXZZ circuits — the
	// collapsed-branch approximation domain of the batch engine (see
	// package frame). Repetition-only and radiation-free experiments,
	// and those whose XXZZ strikes are all saturated (fig6's erasures),
	// are frame-exact on every engine.
	XXZZRad bool
}

// Experiments lists every experiment in presentation order.
func Experiments() []Experiment {
	exps := []Experiment{
		{"fig3", "temporal decay T(t) and its step approximation", fig3, false},
		{"fig4", "spatial decay S(d) over architecture distance", fig4, false},
		{"fig5", "logical error landscape: noise x radiation", fig5, true},
		{"fig6", "criticality by code distance (single erasure)", fig6, false},
		{"fig7", "correlated spread vs independent erasures", fig7, true},
		{"fig8", "per-qubit criticality across architectures", fig8, true},
		{"ablation-decoder", "blossom vs union-find vs greedy decoding", ablationDecoder, true},
		{"ablation-ns", "temporal sample count sweep", ablationTemporalSamples, false},
		{"ablation-layout", "initial layout strategy", ablationLayout, true},
		{"ablation-rounds", "stabilization round count sweep", ablationRounds, false},
		{"memory", "logical error vs rounds at fixed distance (space-time decoding)", memory, true},
		{"threshold", "intrinsic-noise baseline by distance (no radiation)", threshold, false},
		{"logical", "post-QEC logical-layer fault injection (future work)", logicalLayer, true},
	}
	for i := range exps {
		build := exps[i].Run
		exps[i].Run = func(c Config) (*Table, error) { return run(build, c) }
	}
	return exps
}

// run is every Experiment.Run: the one way an experiment runs. It
// fills in the config's defaults once and validates them, so a config
// outside the domain is the error it reports before anything is built,
// and hands the builder the defaulted config. A sweep aborted by
// cancellation or an isolated worker panic unwinds the builder as a
// runAbort, converted here into the error run reports; any other panic
// — a genuine bug in a builder — keeps propagating untouched. In
// adaptive mode (CI > 0) every sweep result of the run is recorded, and
// the table gains one shot-budget note over all of them.
func run(build func(Config) (*Table, error), c Config) (t *Table, err error) {
	c = c.Defaults()
	if err := c.Validate(); err != nil {
		return nil, err
	}
	var ran []sweep.Result
	if c.CI > 0 {
		c.ran = &ran
	}
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		ab, ok := r.(runAbort)
		if !ok {
			panic(r)
		}
		t, err = nil, ab.err
	}()
	if t, err = build(c); err == nil && c.CI > 0 {
		noteAdaptive(t, c, ran)
	}
	return t, err
}

// Find returns the named experiment.
func Find(name string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}
