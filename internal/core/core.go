// Package core is the high-level façade of the radqec library: it wires
// together the surface-code builders, the hardware transpiler, the
// radiation fault model, the parallel injection engine and the MWPM
// decoder behind a small API suitable for applications.
//
// A typical session builds a Simulator for a code on a topology and
// queries logical error rates under radiation strikes:
//
//	sim, _ := core.NewSimulator(core.Options{
//	    Code:     core.CodeSpec{Family: core.FamilyRepetition, DZ: 5},
//	    Topology: "mesh",
//	})
//	res := sim.Strike(2)         // full time+space evolution, root qubit 2
//	fmt.Println(res.Overall())   // logical error rate
package core

import (
	"fmt"
	"runtime"
	"sync"

	"radqec/internal/arch"
	"radqec/internal/circuit"
	"radqec/internal/frame"
	"radqec/internal/inject"
	"radqec/internal/noise"
	"radqec/internal/qec"
	"radqec/internal/stats"
)

// Code family names for CodeSpec.
const (
	FamilyRepetition = "repetition"
	FamilyXXZZ       = "xxzz"
)

// Engine names for Options.Engine.
const (
	// EngineTableau is the stabilizer tableau: exact for every circuit
	// and fault, O(gates·n) per shot — the oracle.
	EngineTableau = "tableau"
	// EngineBatch (the default) is the bit-parallel Pauli-frame engine:
	// 64 shots per uint64 word, 512 per tile, exact for the full Clifford
	// set under depolarizing noise and for radiation resets on
	// Z-eigenstate sites, with the collapsed-branch approximation
	// documented in package frame for resets on superposed XXZZ sites.
	EngineBatch = "batch"
)

// EngineAuto is pinned by the frozen bench/ harness, which passes it as
// exp.Config.Engine; it is the empty name, which resolves to EngineBatch.
const EngineAuto = ""

// Engines lists the recognised Options.Engine values.
func Engines() []string { return []string{EngineTableau, EngineBatch} }

// Decoder names for Options.Decoder.
const (
	// DecoderMWPM decodes with blossom minimum-weight perfect matching
	// (the paper's decoder and the default).
	DecoderMWPM = "mwpm"
	// DecoderUF decodes with the almost-linear union-find decoder.
	DecoderUF = "uf"
)

// Decoders lists the recognised Options.Decoder values.
func Decoders() []string { return []string{DecoderMWPM, DecoderUF} }

// ResolveDecoder maps a decoder name onto a code's scalar and
// tile-parallel decode functions; both views decode lane-for-lane
// identically. Empty means DecoderMWPM. Unknown names are an error —
// the single decoder-selection policy shared by the core façade, the
// experiment sweeps and the CLI.
func ResolveDecoder(name string, code *qec.Code) (func(bits []int) int, frame.TileDecodeFunc, error) {
	switch name {
	case "", DecoderMWPM:
		return code.Decode, code.DecodeTile, nil
	case DecoderUF:
		return code.DecodeUnionFind, code.DecodeUnionFindTile, nil
	default:
		return nil, nil, fmt.Errorf("core: unknown decoder %q (want one of %v)", name, Decoders())
	}
}

// WidthAuto is pinned by the frozen bench/ harness, which passes it as
// exp.Config.Width; the tile width is the constant frame.MaxTileWords.
const WidthAuto = "auto"

// CodeSpec selects a surface code, its distance tuple and its memory
// depth.
type CodeSpec struct {
	// Family is FamilyRepetition or FamilyXXZZ.
	Family string
	// DZ is the bit-flip protection distance; DX the phase-flip one.
	// The repetition family ignores DX (it is fixed to 1).
	DZ, DX int
	// Rounds is the number of stabilization rounds (0 means the paper's
	// 2; anything >= 2 opens the multi-round memory workload, decoded
	// over the space-time detector-error model).
	Rounds int
}

// Options configures a Simulator.
type Options struct {
	// Code selects the surface code.
	Code CodeSpec
	// Topology names the architecture graph (see arch.ByName); it is
	// sized automatically to fit the code.
	Topology string
	// PhysicalErrorRate is the intrinsic depolarizing rate p
	// (default 0.01, the paper's setting).
	PhysicalErrorRate float64
	// TemporalSamples is ns, the step resolution of the fault's decay
	// (default 10).
	TemporalSamples int
	// Shots per estimated rate (default 2000).
	Shots int
	// Seed drives every campaign deterministically.
	Seed uint64
	// Workers caps how many goroutines one campaign runs its shots on
	// (0 = GOMAXPROCS); see NewEngineRunner.
	Workers int
	// Engine selects the simulation engine (EngineTableau or
	// EngineBatch); empty means EngineBatch.
	Engine string
	// Decoder selects the syndrome decoder (DecoderMWPM or DecoderUF);
	// empty means DecoderMWPM.
	Decoder string
}

func (o Options) withDefaults() Options {
	if o.PhysicalErrorRate == 0 {
		o.PhysicalErrorRate = 0.01
	}
	if o.TemporalSamples <= 0 {
		o.TemporalSamples = noise.DefaultSamples
	}
	if o.Shots <= 0 {
		o.Shots = 2000
	}
	if o.Topology == "" {
		o.Topology = "mesh"
	}
	return o
}

// Result is the outcome of one estimated point.
type Result struct {
	// Shots and Errors are raw campaign counts.
	Shots, Errors int
}

// Rate returns the logical error rate.
func (r Result) Rate() float64 {
	if r.Shots == 0 {
		return 0
	}
	return float64(r.Errors) / float64(r.Shots)
}

// CI returns the Wilson 95% confidence interval of the rate.
func (r Result) CI() (lo, hi float64) { return stats.WilsonCI(r.Errors, r.Shots) }

// EvolutionResult holds per-temporal-sample rates of a strike.
type EvolutionResult struct {
	// Samples[k] is the result at temporal sample k (sample 0 is the
	// moment of impact, root probability 100%).
	Samples []Result
}

// Overall returns the mean logical error rate over the evolution.
func (e EvolutionResult) Overall() float64 {
	return stats.Mean(e.rates())
}

// Median returns the median rate over the evolution (the per-node metric
// of the paper's Figure 8).
func (e EvolutionResult) Median() float64 {
	return stats.Median(e.rates())
}

func (e EvolutionResult) rates() []float64 {
	out := make([]float64, len(e.Samples))
	for i, s := range e.Samples {
		out[i] = s.Rate()
	}
	return out
}

// Simulator estimates post-decoding logical error rates for one code on
// one hardware topology.
type Simulator struct {
	opts Options
	code *qec.Code
	tr   *arch.Transpiled
	dist [][]int
	// decode and decodeTile are the scalar and tile-parallel views of
	// the configured decoder, resolved once at construction.
	decode     func(bits []int) int
	decodeTile frame.TileDecodeFunc
}

// NewSimulator builds the code, transpiles it onto the topology and
// prepares the distance oracle for fault spreading.
func NewSimulator(opts Options) (*Simulator, error) {
	opts = opts.withDefaults()
	var (
		code *qec.Code
		err  error
	)
	rounds := opts.Code.Rounds
	if rounds == 0 {
		rounds = 2
	}
	switch opts.Code.Family {
	case FamilyRepetition:
		code, err = qec.NewRepetitionRounds(opts.Code.DZ, rounds)
	case FamilyXXZZ:
		code, err = qec.NewXXZZRounds(opts.Code.DZ, opts.Code.DX, rounds)
	default:
		return nil, fmt.Errorf("core: unknown code family %q", opts.Code.Family)
	}
	if err != nil {
		return nil, err
	}
	if _, err := ResolveEngine(opts.Engine); err != nil {
		return nil, err
	}
	decode, decodeTile, err := ResolveDecoder(opts.Decoder, code)
	if err != nil {
		return nil, err
	}
	topo, err := arch.ByName(opts.Topology, code.NumQubits())
	if err != nil {
		return nil, err
	}
	tr, err := arch.Transpile(code.Circ, topo)
	if err != nil {
		return nil, err
	}
	return &Simulator{
		opts:       opts,
		code:       code,
		tr:         tr,
		dist:       topo.Graph.AllPairsShortestPaths(),
		decode:     decode,
		decodeTile: decodeTile,
	}, nil
}

// Code returns the underlying code instance.
func (s *Simulator) Code() *qec.Code { return s.code }

// Transpiled returns the routed circuit and layout.
func (s *Simulator) Transpiled() *arch.Transpiled { return s.tr }

// NumPhysicalQubits returns the size of the device.
func (s *Simulator) NumPhysicalQubits() int { return s.tr.Circuit.NumQubits }

// UsedQubits returns the physical qubits hosting circuit activity — the
// meaningful strike roots.
func (s *Simulator) UsedQubits() []int { return s.tr.Used() }

// EngineRunner executes the shot range [start, start+n) of one
// campaign and reports its counts; ranges partition to exactly one
// contiguous run (the determinism contract of every engine).
type EngineRunner func(start, n int) (shots, errors int)

// NewEngineRunner builds the campaign of a resolved engine name and
// returns its range runner — the single construction point shared by
// the core façade and the experiment sweeps. decode and decodeTile are
// the scalar and tile-parallel views of the same decoder; the batched
// engine prefers decodeTile and falls back to unpacking lanes through
// decode. seed doubles as the batch engine's reference seed. The unnamed
// int is inert: the frozen bench/ harness passes a width there.
//
// workers caps how many goroutines one call runs its range on (0 means
// GOMAXPROCS). At 1 the range runs on the caller's goroutine — what the
// experiment sweeps ask for, since their scheduler's workers are the
// pool; above 1 the runner cuts it into contiguous sub-ranges (see
// fanOut), for callers that run one campaign outside a scheduler.
func NewEngineRunner(engine string, circ *circuit.Circuit, dep noise.Depolarizing,
	ev *noise.RadiationEvent, seed uint64, expected int,
	decode func(bits []int) int, decodeTile frame.TileDecodeFunc, _ int, workers int) EngineRunner {
	var run EngineRunner
	switch engine {
	case EngineBatch:
		if decodeTile == nil {
			decodeTile = frame.LaneDecodeTile(decode, circ.NumClbits)
		}
		camp := &frame.BatchCampaign{
			Sim:        frame.NewBatch(circ, dep, ev, seed),
			DecodeTile: decodeTile,
			Expected:   expected,
		}
		run = func(start, n int) (int, int) {
			r := camp.RunFrom(seed, start, n)
			return r.Shots, r.Errors
		}
	case EngineTableau:
		camp := &inject.Campaign{
			Exec:     inject.NewExecutor(circ, dep, ev),
			Decode:   decode,
			Expected: expected,
		}
		run = func(start, n int) (int, int) {
			r := camp.RunFrom(seed, start, n)
			return r.Shots, r.Errors
		}
	default:
		// "" must go through ResolveEngine first; a silent tableau
		// fallback here would forfeit the default unnoticed.
		panic(fmt.Sprintf("core: NewEngineRunner requires a resolved engine, got %q", engine))
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 {
		return run
	}
	return func(start, n int) (int, int) { return fanOut(run, workers, start, n) }
}

// fanOut runs [start, start+n) as up to workers contiguous sub-ranges
// cut on the absolute frame.TileShots grid, one goroutine each, and sums
// their counts. The sum is exact because any partition of a range merges
// to one run over it; cutting on the tile grid keeps every batched-engine
// tile whole within one sub-range.
func fanOut(run EngineRunner, workers, start, n int) (shots, errors int) {
	const tile = frame.TileShots
	first := start / tile
	tiles := (start+n-1)/tile - first + 1
	if workers = min(workers, tiles); workers <= 1 {
		// One tile, or an empty range: the engine runs it as it is.
		return run(start, n)
	}
	counts := make([][2]int, workers)
	var wg sync.WaitGroup
	for w := range workers {
		lo := max(start, (first+tiles*w/workers)*tile)
		hi := min(start+n, (first+tiles*(w+1)/workers)*tile)
		wg.Add(1)
		go func() {
			defer wg.Done()
			counts[w][0], counts[w][1] = run(lo, hi-lo)
		}()
	}
	wg.Wait()
	for _, c := range counts {
		shots += c[0]
		errors += c[1]
	}
	return shots, errors
}

// ResolveEngine maps a configured engine name onto the engine that
// will actually run: explicit names resolve to themselves and ""
// picks EngineBatch — the universal frame engine covers the full
// Clifford set, so every campaign in the repo rides the bit-parallel
// fast path (512-shot tiles) by default, with EngineTableau kept as the
// explicit oracle. Unknown names are an error. This is the single
// engine-selection policy shared by the core façade and the experiment
// sweeps.
func ResolveEngine(engine string) (string, error) {
	switch engine {
	case EngineTableau, EngineBatch:
		return engine, nil
	case "":
		return EngineBatch, nil
	default:
		return "", fmt.Errorf("core: unknown engine %q (want one of %v)", engine, Engines())
	}
}

// engine resolves the configured engine for this simulator; the name
// was validated in NewSimulator.
func (s *Simulator) engine() string {
	eng, _ := ResolveEngine(s.opts.Engine)
	return eng
}

// run executes one fixed-shot campaign on the resolved engine.
func (s *Simulator) run(ev *noise.RadiationEvent, seed uint64) Result {
	run := NewEngineRunner(s.engine(), s.tr.Circuit,
		noise.NewDepolarizing(s.opts.PhysicalErrorRate), ev, seed,
		s.code.ExpectedLogical(), s.decode, s.decodeTile, 0, s.opts.Workers)
	shots, errors := run(0, s.opts.Shots)
	return Result{Shots: shots, Errors: errors}
}

// Clean estimates the logical error rate with intrinsic noise only.
func (s *Simulator) Clean() Result {
	return s.run(noise.NoRadiation(s.NumPhysicalQubits()), s.opts.Seed)
}

// Strike simulates a full radiation event rooted at the given physical
// qubit: the fault spreads spatially with S(d) and decays over the ns
// temporal samples of T̂(t).
func (s *Simulator) Strike(root int) EvolutionResult {
	if root < 0 || root >= s.NumPhysicalQubits() {
		panic(fmt.Sprintf("core: strike root %d out of range", root))
	}
	samples := noise.TemporalSamples(s.opts.TemporalSamples)
	out := EvolutionResult{Samples: make([]Result, len(samples))}
	for k, rootProb := range samples {
		ev := noise.NewRadiationEvent(s.dist[root], rootProb, true)
		out.Samples[k] = s.run(ev, s.opts.Seed+uint64(k)*7919)
	}
	return out
}

// StrikeAtImpact estimates the rate at the moment of impact only
// (temporal sample 0, root probability 100%).
func (s *Simulator) StrikeAtImpact(root int, spread bool) Result {
	if root < 0 || root >= s.NumPhysicalQubits() {
		panic(fmt.Sprintf("core: strike root %d out of range", root))
	}
	ev := noise.NewRadiationEvent(s.dist[root], 1.0, spread)
	return s.run(ev, s.opts.Seed)
}

// Erase resets every listed physical qubit with probability one after
// each gate — the correlated "hypernode" fault of Figure 7.
func (s *Simulator) Erase(members []int) Result {
	probs := make([]float64, s.NumPhysicalQubits())
	for _, q := range members {
		if q < 0 || q >= len(probs) {
			panic(fmt.Sprintf("core: erase target %d out of range", q))
		}
		probs[q] = 1
	}
	return s.run(&noise.RadiationEvent{Probs: probs}, s.opts.Seed)
}
