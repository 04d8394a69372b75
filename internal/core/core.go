// Package core holds the engine names and the single construction point
// of an engine campaign, NewEngineRunner, which runs a shot range on one
// goroutine or fans it over several. Everything above a campaign —
// codes, routed circuits, radiation events, seeds, the campaign config
// and the library façade exp.Simulator — lives in package exp.
package core

import (
	"fmt"
	"runtime"
	"sync"

	"radqec/internal/circuit"
	"radqec/internal/frame"
	"radqec/internal/inject"
	"radqec/internal/noise"
)

// Engine names for exp.Config.Engine.
const (
	// EngineTableau is the stabilizer tableau: exact for every circuit
	// and fault, O(gates·n) per shot — the oracle.
	EngineTableau = "tableau"
	// EngineBatch (the default) is the bit-parallel Pauli-frame engine:
	// 64 shots per uint64 word, 512 per tile, exact for the full Clifford
	// set under depolarizing noise, for radiation resets on Z-eigenstate
	// sites and for every saturated (probability-1) strike, with the
	// collapsed-branch approximation documented in package frame only
	// for fractional strikes on superposed XXZZ sites.
	EngineBatch = "batch"
)

// EngineAuto is pinned by the frozen bench/ harness, which passes it as
// exp.Config.Engine; it is the empty name, which exp.Config.Defaults
// fills in as EngineBatch.
const EngineAuto = ""

// Engines lists the recognised exp.Config.Engine values.
func Engines() []string { return []string{EngineTableau, EngineBatch} }

// WidthAuto is pinned by the frozen bench/ harness, which passes it as
// exp.Config.Width; the tile width is the constant frame.MaxTileWords.
const WidthAuto = "auto"

// EngineRunner executes the shot range [start, start+n) of one
// campaign and reports its counts; ranges partition to exactly one
// contiguous run (the determinism contract of every engine).
type EngineRunner func(start, n int) (shots, errors int)

// NewEngineRunner builds the campaign of a resolved engine name and
// returns its range runner — the single construction point of every
// campaign the experiment layer runs. Both engines decode through
// decodeTile, which is required: the batched engine hands it
// tiles of up to frame.MaxTileWords words, the tableau engine one-word
// tiles. seed doubles as the batch engine's reference seed. The unnamed
// scalar decoder and int are inert: the frozen bench/ harness passes a
// scalar view of the decoder and a width there.
//
// workers caps how many goroutines one call runs its range on (0 means
// GOMAXPROCS). At 1 the range runs on the caller's goroutine — what the
// experiment sweeps ask for, since their scheduler's workers are the
// pool; above 1 the runner cuts it into contiguous sub-ranges (see
// fanOut), for callers that run one campaign outside a scheduler, such
// as exp.Simulator.
func NewEngineRunner(engine string, circ *circuit.Circuit, dep noise.Depolarizing,
	ev *noise.RadiationEvent, seed uint64, expected int,
	_ func(bits []int) int, decodeTile frame.TileDecodeFunc, _ int, workers int) EngineRunner {
	var run EngineRunner
	switch engine {
	case EngineBatch:
		camp := &frame.BatchCampaign{
			Sim:        frame.NewBatch(circ, dep, ev, seed),
			DecodeTile: decodeTile,
			Expected:   expected,
		}
		run = func(start, n int) (int, int) { return camp.RunFrom(seed, start, n) }
	case EngineTableau:
		camp := &inject.Campaign{
			Exec:       inject.NewExecutor(circ, dep, ev),
			DecodeTile: decodeTile,
			Expected:   expected,
		}
		run = func(start, n int) (int, int) { return camp.RunFrom(seed, start, n) }
	default:
		// "" must go through exp.Config.Defaults first; a silent tableau
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
