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
	// XXZZRad marks experiments whose campaigns include radiation
	// strikes on XXZZ circuits — the collapsed-branch approximation
	// domain of the frame engines (see package frame). Repetition-only
	// and radiation-free experiments are frame-exact on every engine.
	XXZZRad bool
	// TailCols names the per-point record columns (see PointRecord)
	// whose tail statistics are the experiment's quantity of interest —
	// the CVaR/quantile columns the paper reads for radiation-strike
	// campaigns. A non-empty list marks every point of the experiment
	// tail-sensitive: its telemetry signals carry tail_width. Tables and
	// records are unaffected.
	TailCols []string
}

// strikeTailCols are the tail columns the radiation-strike experiments
// declare: the upper quantiles and the expected shortfall of the
// per-batch rate stream.
var strikeTailCols = []string{"q90", "q99", "cvar90"}

// Experiments lists every experiment in presentation order. Experiments
// that declare TailCols have their run function wrapped so every config
// they receive carries the tail-sensitivity hint down to sweep points.
func Experiments() []Experiment {
	wrap := func(f func(Config) *Table) func(Config) (*Table, error) {
		return func(c Config) (*Table, error) { return f(c), nil }
	}
	exps := []Experiment{
		{"fig3", "temporal decay T(t) and its step approximation", wrap(Fig3), false, nil},
		{"fig4", "spatial decay S(d) over architecture distance", wrap(Fig4), false, nil},
		{"fig5", "logical error landscape: noise x radiation", Fig5, true, strikeTailCols},
		{"fig6", "criticality by code distance (single erasure)", Fig6, true, strikeTailCols},
		{"fig7", "correlated spread vs independent erasures", Fig7, true, strikeTailCols},
		{"fig8", "per-qubit criticality across architectures", Fig8, true, strikeTailCols},
		{"fig8summary", "architecture comparison summary", Fig8Summary, true, strikeTailCols},
		{"ablation-decoder", "blossom vs union-find vs greedy decoding", AblationDecoder, true, nil},
		{"ablation-ns", "temporal sample count sweep", AblationTemporalSamples, false, nil},
		{"ablation-layout", "initial layout strategy", AblationLayout, true, nil},
		{"ablation-rounds", "stabilization round count sweep", AblationRounds, false, nil},
		{"memory", "logical error vs rounds at fixed distance (space-time decoding)", Memory, true, strikeTailCols},
		{"threshold", "intrinsic-noise baseline by distance (no radiation)", Threshold, false, nil},
		{"logical", "post-QEC logical-layer fault injection (future work)", LogicalLayer, true, nil},
	}
	for i := range exps {
		if len(exps[i].TailCols) == 0 {
			continue
		}
		run := exps[i].Run
		exps[i].Run = func(c Config) (*Table, error) {
			c.TailSensitive = true
			return run(c)
		}
	}
	// Outermost guard: a sweep aborted by cancellation or an isolated
	// worker panic unwinds the figure builder as a runAbort, converted
	// here into the error Run reports. Any other panic — a genuine bug
	// in a builder — keeps propagating untouched.
	for i := range exps {
		run := exps[i].Run
		exps[i].Run = func(c Config) (t *Table, err error) {
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
