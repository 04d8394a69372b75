package exp

// Experiment is one runnable experiment of the paper's evaluation —
// the registry entry shared by the CLI and the campaign daemon, so
// both front-ends expose exactly the same workloads.
type Experiment struct {
	// Name is the CLI argument / API experiment identifier.
	Name string
	// Desc is the one-line human description.
	Desc string
	// Run produces the experiment's table under the given config.
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
	wrap := func(f func(Config) *Table) func(Config) (*Table, error) {
		return func(c Config) (*Table, error) { return f(c), nil }
	}
	exps := []Experiment{
		{"fig3", "temporal decay T(t) and its step approximation", wrap(Fig3), false},
		{"fig4", "spatial decay S(d) over architecture distance", wrap(Fig4), false},
		{"fig5", "logical error landscape: noise x radiation", Fig5, true},
		{"fig6", "criticality by code distance (single erasure)", Fig6, false},
		{"fig7", "correlated spread vs independent erasures", Fig7, true},
		{"fig8", "per-qubit criticality across architectures", Fig8, true},
		{"ablation-decoder", "blossom vs union-find vs greedy decoding", AblationDecoder, true},
		{"ablation-ns", "temporal sample count sweep", AblationTemporalSamples, false},
		{"ablation-layout", "initial layout strategy", AblationLayout, true},
		{"ablation-rounds", "stabilization round count sweep", AblationRounds, false},
		{"memory", "logical error vs rounds at fixed distance (space-time decoding)", Memory, true},
		{"threshold", "intrinsic-noise baseline by distance (no radiation)", Threshold, false},
		{"logical", "post-QEC logical-layer fault injection (future work)", LogicalLayer, true},
	}
	// Outermost guard: a config outside the domain (Config.Validate,
	// after Defaults) is the error Run reports before anything is built,
	// and a sweep aborted by cancellation or an isolated worker panic
	// unwinds the figure builder as a runAbort, converted here into the
	// error Run reports. Any other panic — a genuine bug in a builder —
	// keeps propagating untouched.
	for i := range exps {
		run := exps[i].Run
		exps[i].Run = func(c Config) (t *Table, err error) {
			if err := c.Defaults().Validate(); err != nil {
				return nil, err
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
			return run(c)
		}
	}
	return exps
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
