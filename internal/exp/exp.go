// Package exp implements one experiment per figure of the paper's
// evaluation (Figures 3-8), on top of the code builders, the
// transpiler, the fault injector and the MWPM decoder. Every experiment
// returns a Table whose rows reproduce the series the figure plots.
//
// Experiments no longer run their own shot loops: each figure emits
// sweep-point specs — one injection campaign per measured point — and
// the sweep engine fans them across workers, fixed-shot by default or
// with adaptive Wilson-interval allocation when Config.CI is set. At
// fixed-shot settings the output is byte-identical to the classic
// per-figure loops, because every point consumes the same seed-derived
// shot streams.
package exp

import (
	"context"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"time"

	"radqec/internal/arch"
	"radqec/internal/control"
	"radqec/internal/core"
	"radqec/internal/frame"
	"radqec/internal/noise"
	"radqec/internal/qec"
	"radqec/internal/rng"
	"radqec/internal/stats"
	"radqec/internal/sweep"
	"radqec/internal/telemetry"
	"radqec/internal/trace"
)

// Simulation engine names for Config.Engine (see the core package for
// per-engine cost and validity).
// EngineAuto is the empty default, kept as a name because the frozen
// bench/ harness sets it.
const (
	EngineAuto    = core.EngineAuto
	EngineTableau = core.EngineTableau
	EngineBatch   = core.EngineBatch
)

// DecoderMWPM names the one syndrome decoder, blossom minimum-weight
// perfect matching on the unit-weight graph (the paper's decoder). It is
// Config.Decoder's only value and the value every content address
// carries.
const DecoderMWPM = "mwpm"

// Engines lists the recognised Config.Engine values.
func Engines() []string { return core.Engines() }

// MaxNS and MaxRounds bound the two Config fields that size a campaign
// before any shot runs. Config.Validate rejects larger values as
// invalid input: noise.TemporalSamples allocates ns samples up front and
// each becomes a sweep point, so a huge ns dies of out-of-memory — a
// fatal error no recover boundary stops — and every round lengthens the
// code circuit and its detector-error model, built while the code
// registry holds its lock.
//
// MaxShots bounds a point's shot budget: Shots, MaxShots and, when CI is
// set without MaxShots, the worst-case count sweep.WorstCaseShots(CI). A
// budget far past it keeps one point running, with nothing printed, for
// longer than anyone waits, and its counts near int's range.
const (
	// MaxNS is 25 times the deepest sample count any experiment uses
	// (ablation-ns's 40).
	MaxNS = 1000
	// MaxRounds is 11 times the deepest memory point the benchmark
	// runs (9 rounds).
	MaxRounds = 100
	// MaxShots is over 2 500 times the largest per-point count any
	// script runs (400 000).
	MaxShots = 1 << 30
)

// DefaultSeed is the campaign seed a front end runs when none is given
// (the CLI's -seed default, the daemon's omitted "seed"). Seed 0 is a
// seed like any other, so Config.Defaults leaves Seed alone.
const DefaultSeed uint64 = 1

// Config controls campaign sizes and reproducibility.
type Config struct {
	// Context, when set, bounds every sweep the experiment runs:
	// cancellation is observed at policy-batch boundaries, in-flight
	// points flush their partial progress to Cache as checkpoints, and
	// Experiment.Run returns the cancellation cause — so a resubmitted
	// campaign resumes byte-identically. nil means Background (never
	// cancelled), the classic behaviour.
	Context context.Context
	// Shots per measured point. The paper uses millions; the default
	// (2000) already resolves every qualitative shape.
	Shots int
	// Seed makes campaigns reproducible; distinct points derive
	// distinct streams from it.
	Seed uint64
	// Workers caps how many of the experiment's points run concurrently;
	// 0 means GOMAXPROCS. Each point's engine calls run on the worker
	// that holds it.
	Workers int
	// P is the intrinsic physical error rate (Section IV-C fixes 1%).
	P float64
	// NS is the temporal sample count of the step decay (paper: 10).
	NS int
	// CI, when positive, switches every measured point to adaptive
	// shot allocation: batches are added until the Wilson 95%
	// half-width of the point's rate is at most CI (or MaxShots is
	// reached). Zero keeps the classic fixed-shot campaigns.
	CI float64
	// MaxShots caps adaptive allocation per point; 0 picks the
	// worst-case fixed count that guarantees CI at any rate.
	MaxShots int
	// OnPoint, when set, observes every completed sweep point as it
	// finishes — the hook behind the CLI's streaming JSON output.
	OnPoint func(sweep.Result)
	// Engine selects the simulation engine (EngineTableau or
	// EngineBatch); Defaults fills an empty name in as EngineBatch.
	// Validate rejects any other name.
	Engine string
	// Decoder is accepted as DecoderMWPM or empty and read by nothing:
	// every spec decodes with qec.Code.DecodeTile unless it sets its own
	// decode function. The field stays only because the frozen bench/
	// harness sets it; Defaults fills it in and Validate rejects any
	// other name.
	Decoder string
	// Width is accepted and ignored: the frozen bench/ harness sets it.
	Width string
	// Rounds is the number of stabilization rounds every figure builds
	// its codes with (0 means the paper's 2). The memory experiment
	// sweeps rounds itself and treats this as the sweep's deepest point.
	Rounds int
	// Cache, when set, persists every sweep point under its canonical
	// spec hash (see specFingerprint): committed points are served
	// without re-running the engine, and interrupted points restart at
	// their last batch-boundary checkpoint. The disk-backed
	// implementation is store.Store.
	Cache sweep.PointCache
	// Scheduler, when set, runs every sweep on this shared worker pool
	// — the daemon sets it so concurrent client campaigns share one CPU
	// budget fairly instead of oversubscribing.
	Scheduler *sweep.Scheduler
	// Control is ignored: the sweep scheduler has one policy. The field
	// stays only because the frozen bench/ harness sets it.
	Control *control.Policy
	// Telemetry, when set, receives one signal per scheduler turn of
	// the experiment's sweeps — the ring behind the daemon's signals
	// stream and the CLI's -stats report.
	Telemetry *telemetry.Campaign
	// Trace, when sampled, is the campaign's root span context: sweeps
	// record point/chunk/decode/commit spans under it. Like Telemetry it is
	// pure mechanism — deliberately absent from specFingerprint, so
	// tracing never perturbs results or content addresses.
	Trace trace.SpanContext
}

// repetition and xxzz resolve the code at the configured memory depth
// through the registry: the same distances and rounds return the same
// *qec.Code, DEM, memos and all, for as long as the registry holds it.
func (c Config) repetition(d int) (*qec.Code, error) {
	return codeRegistry.code(codeKey{dZ: d, dX: 1, rounds: c.Rounds})
}

func (c Config) xxzz(dZ, dX int) (*qec.Code, error) {
	return codeRegistry.code(codeKey{xxzz: true, dZ: dZ, dX: dX, rounds: c.Rounds})
}

// Defaults returns cfg with its zero Shots, P, NS and Rounds replaced
// by the paper's defaults and its empty Engine and Decoder by
// EngineBatch and DecoderMWPM. Only an exact zero means "unset": a
// negative value stays, for Validate to reject. It is the one place the
// empty engine name gets a meaning; everything downstream reads the
// name as given.
func (c Config) Defaults() Config {
	if c.Shots == 0 {
		c.Shots = 2000
	}
	if c.P == 0 {
		c.P = 0.01
	}
	if c.NS == 0 {
		c.NS = noise.DefaultSamples
	}
	if c.Rounds == 0 {
		c.Rounds = 2
	}
	if c.Engine == "" {
		c.Engine = EngineBatch
	}
	if c.Decoder == "" {
		c.Decoder = DecoderMWPM
	}
	return c
}

// Validate reports the first field outside a campaign's domain, or nil.
// It is the one check of that domain: the CLI runs it on its flags, and
// the daemon's requests, NewSimulator and every Experiment.Run run it
// after Defaults, so a bad value is an error naming the field, never a
// panic deep in a sweep or a silently degenerate campaign. A message
// starts with the field's name, which is also its CLI flag and its
// request field. Every float bound is written so that NaN fails it.
func (c Config) Validate() error {
	switch {
	case c.Engine != "" && !slices.Contains(Engines(), c.Engine):
		return fmt.Errorf("engine %q unknown (want one of %v)", c.Engine, Engines())
	case c.Decoder != "" && c.Decoder != DecoderMWPM:
		return fmt.Errorf("decoder %q unknown (want %s)", c.Decoder, DecoderMWPM)
	case c.Shots < 1 || c.Shots > MaxShots:
		return fmt.Errorf("shots %d out of range (want 1..%d per point)", c.Shots, MaxShots)
	case !(c.P > 0 && c.P <= 1):
		return fmt.Errorf("p %g out of range (want 0 < p <= 1, an intrinsic error rate)", c.P)
	case c.NS < 1 || c.NS > MaxNS:
		return fmt.Errorf("ns %d out of range (want 1..%d temporal samples)", c.NS, MaxNS)
	case c.Rounds < 2 || c.Rounds > MaxRounds:
		return fmt.Errorf("rounds %d out of range (want 2..%d stabilization rounds)", c.Rounds, MaxRounds)
	case c.Workers < 0:
		return fmt.Errorf("workers %d out of range (want >= 0)", c.Workers)
	case !(c.CI >= 0 && c.CI < 0.5):
		return fmt.Errorf("ci %g out of range (want 0 <= ci < 0.5; 0 disables adaptive shots)", c.CI)
	case c.MaxShots < 0 || c.MaxShots > MaxShots:
		return fmt.Errorf("maxshots %d out of range (want 0..%d; 0 = worst-case count for ci)", c.MaxShots, MaxShots)
	case c.CI > 0 && c.MaxShots == 0 && sweep.WorstCaseShots(c.CI) > MaxShots:
		return fmt.Errorf("ci %g out of range without maxshots (its worst-case count is over %d shots per point)", c.CI, MaxShots)
	}
	return nil
}

// sweepConfig maps the experiment configuration onto the sweep engine.
// Batches are always aligned to the batched engine's tile
// (frame.TileShots) — bit-parallel campaigns fill whole tiles, and
// every engine sees the same chunking, so the default engine and an
// explicit one produce identical output (tables and batch counts
// alike) for the points they resolve alike. Alignment never changes
// merged counts (the BatchRunner contract), only how the work is
// chunked into checkpoint and cancel boundaries and scheduler turns.
func (c Config) sweepConfig() sweep.Config {
	return sweep.Config{
		Policy: sweep.Policy{
			Shots:    c.Shots,
			CI:       c.CI,
			MaxShots: c.MaxShots,
			Align:    frame.TileShots,
		},
		Mechanism: sweep.Mechanism{
			Workers:   c.Workers,
			OnResult:  c.OnPoint,
			Cache:     c.Cache,
			Scheduler: c.Scheduler,
			Telemetry: c.Telemetry,
			Trace:     c.Trace,
		},
	}
}

// Table is a printable experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	// Notes carry observations derived from the rows.
	Notes []string
}

// Add appends a formatted row.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// WriteText renders the table with aligned columns.
func (t *Table) WriteText(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// WriteCSV renders the table as comma-separated values.
func (t *Table) WriteCSV(w io.Writer) {
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	cells := make([]string, len(t.Header))
	for i, h := range t.Header {
		cells[i] = esc(h)
	}
	fmt.Fprintln(w, strings.Join(cells, ","))
	for _, row := range t.Rows {
		cells = cells[:0]
		for _, c := range row {
			cells = append(cells, esc(c))
		}
		fmt.Fprintln(w, strings.Join(cells, ","))
	}
}

// pct formats a rate as a percentage.
func pct(r float64) string { return fmt.Sprintf("%.2f%%", 100*r) }

// prepared couples a code with its routed circuit on a topology. Every
// prepared circuit is batch-eligible: the universal frame engine covers
// the full Clifford set, so the default rides the bit-parallel path for
// all of them (fractional radiation resets on superposed XXZZ sites
// carry the collapsed-branch approximation documented in package frame;
// pass EngineTableau for the exact oracle).
//
// Concurrent campaigns share one prepared circuit through the registry,
// so everything here is either written before the value is published or
// synchronised: circuitJSON by its Once, the compiled reference by the
// circuit's own slot, the code's DEM and memos by the code.
type prepared struct {
	code *qec.Code
	tr   *arch.Transpiled
	dist [][]int // all-pairs distances of the topology
	// circuitJSON memoises the circuit's canonical serialization as the
	// JSON string literal a fingerprint carries, so the 2-3 KB that
	// dominate every point's address are dumped and escaped once per
	// prepared circuit, not per point — and only where a campaign has a
	// cache to address.
	circuitOnce sync.Once
	circuitJSON []byte
}

// circuitLiteral returns the memoised circuit literal.
func (p *prepared) circuitLiteral() []byte {
	p.circuitOnce.Do(func() {
		p.circuitJSON = appendJSONString(nil, p.tr.Circuit.String())
	})
	return p.circuitJSON
}

// prepare returns the code's circuit routed onto the topology, through
// the registry.
func prepare(code *qec.Code, topo arch.Topology) (*prepared, error) {
	return codeRegistry.prepare(code, topo)
}

func newPrepared(code *qec.Code, topo arch.Topology) (*prepared, error) {
	tr, err := arch.Transpile(code.Circ, topo)
	if err != nil {
		return nil, err
	}
	return &prepared{
		code: code,
		tr:   tr,
		dist: topo.Graph.AllPairsShortestPaths(),
	}, nil
}

// pointSpec is the sweep-point spec a figure emits: one injection
// campaign — the prepared circuit under intrinsic noise at rate phys
// plus one radiation event, read by one decoder — measured at one seed.
type pointSpec struct {
	key  string
	prep *prepared
	phys float64
	ev   *noise.RadiationEvent
	// decodeTile, when set, replaces qec.Code.DecodeTile on both
	// engines.
	decodeTile frame.TileDecodeFunc
	seed       uint64
}

// spec builds the spec measuring one radiation event at cfg's intrinsic
// rate.
func (p *prepared) spec(key string, cfg Config, ev *noise.RadiationEvent, seed uint64) pointSpec {
	return pointSpec{key: key, prep: p, phys: cfg.P, ev: ev, seed: seed}
}

// point lowers the spec onto the sweep engine. The campaign is built
// once, on the sweep worker that owns the point, and reused across
// every shot batch; for the tableau engine batch b covering shots
// [s, s+n) consumes exactly the streams split(seed, s..s+n-1), and the
// batched engine maps shot i to lane i%64 of word i/64 with one stream
// per word — either way batching and workers never perturb rates.
// Specs that leave decodeTile nil read the campaign through the code's
// MWPM decoder; specs that set it keep their override. Both
// engines decode through the same tile function, so they decode
// lane-for-lane identically. Every engine call runs on the sweep
// worker's goroutine and reports its decode time in Counts.DecodeNS:
// two clock reads per 512-shot tile on the batched engine, two per
// 64-shot word on the tableau engine, all inside the call, so the decode
// time is a part of the call's wall time.
func (s pointSpec) point(engine string) sweep.Point {
	return sweep.Point{
		Key: s.key,
		Prepare: func() sweep.BatchRunner {
			dec := s.decodeTile
			if dec == nil {
				dec = s.prep.code.DecodeTile
			}
			// decNS accumulates across the decode calls of one engine call.
			var decNS int64
			timedTile := func(rec []uint64, w int, live, out []uint64) {
				t0 := time.Now()
				dec(rec, w, live, out)
				decNS += time.Since(t0).Nanoseconds()
			}
			run := s.runner(engine, timedTile, 1)
			return func(start, n int) sweep.Counts {
				decNS = 0
				shots, errors := run(start, n)
				return sweep.Counts{Shots: shots, Errors: errors, DecodeNS: decNS}
			}
		},
	}
}

// runner builds the spec's campaign on a resolved engine, decoding
// through dec, as a range runner fanned over workers goroutines (see
// core.NewEngineRunner).
func (s pointSpec) runner(engine string, dec frame.TileDecodeFunc, workers int) core.EngineRunner {
	return core.NewEngineRunner(engine, s.prep.tr.Circuit, noise.NewDepolarizing(s.phys), s.ev, s.seed,
		s.prep.code.ExpectedLogical(), nil, dec, 0, workers)
}

// runSpecs fans the specs through the sweep engine, returning per-spec
// results in input order. The sweep's workers are the only pool: each
// point's engine calls run on the worker holding it, so a campaign never
// computes on more goroutines than its Workers cap.
func runSpecs(cfg Config, specs []pointSpec) []sweep.Result {
	if len(specs) == 0 {
		return nil
	}
	t0 := time.Now()
	points := make([]sweep.Point, len(specs))
	var addr *addresser
	if cfg.Cache != nil {
		addr = newAddresser()
	}
	for i, s := range specs {
		points[i] = s.point(cfg.Engine)
		if addr != nil {
			fp := s.fingerprint(cfg)
			points[i].Hash = addr.address(&fp)
		}
	}
	if tel := cfg.Telemetry; tel != nil {
		tel.SetEngine(cfg.Engine)
		tel.AddPlan(time.Since(t0))
	}
	return runPoints(cfg, points)
}

// runPoints runs sweep points under the campaign's context, policy and
// mechanism, returning per-point results in input order. It is the one
// place an experiment's shots run.
func runPoints(cfg Config, points []sweep.Point) []sweep.Result {
	results, err := sweep.Run(cfg.context(), cfg.sweepConfig(), points)
	if err != nil {
		// The figure builders compose tables through plain value
		// plumbing with no error returns of their own; a sweep's
		// terminal error (cancellation, or a panic the scheduler
		// isolated) rides a runAbort panic up to the recover guard
		// wrapped around every Experiment.Run in the registry.
		panic(runAbort{err})
	}
	return results
}

// context resolves the config's campaign context.
func (c Config) context() context.Context {
	if c.Context != nil {
		return c.Context
	}
	return context.Background()
}

// runAbort carries a sweep's terminal error through the figure
// builders to the registry's recover guard, which converts it back
// into the error Experiment.Run reports.
type runAbort struct{ err error }

// resultRates projects sweep results onto their rates.
func resultRates(results []sweep.Result) []float64 {
	out := make([]float64, len(results))
	for i, r := range results {
		out[i] = r.Rate()
	}
	return out
}

// noteAdaptive appends the sweep's shot-budget note to the table. It is
// silent in fixed mode, keeping fixed-shot output byte-identical to the
// classic per-figure loops.
func noteAdaptive(t *Table, cfg Config, resultSets ...[]sweep.Result) {
	if cfg.CI <= 0 {
		return
	}
	var all []sweep.Result
	for _, rs := range resultSets {
		all = append(all, rs...)
	}
	s := sweep.Summarize(cfg.sweepConfig(), all)
	if s.FixedShots == 0 {
		return
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"adaptive ci=%g: %d shots over %d points vs %d fixed-equivalent (%.1f%% saved), %d/%d points converged",
		cfg.CI, s.TotalShots, s.Points, s.FixedShots,
		100*(1-float64(s.TotalShots)/float64(s.FixedShots)), s.Converged, s.Points))
}

// rate estimates the logical error rate under one radiation event via a
// single-point sweep.
func (p *prepared) rate(cfg Config, ev *noise.RadiationEvent, seed uint64) float64 {
	return runSpecs(cfg, []pointSpec{p.spec("", cfg, ev, seed)})[0].Rate()
}

// strikeAt builds the radiation event for a strike rooted at physical
// qubit root with the given root probability.
func (p *prepared) strikeAt(root int, rootProb float64, spread bool) *noise.RadiationEvent {
	return noise.NewRadiationEvent(p.dist[root], rootProb, spread)
}

// evolutionSpecs emits one spec per temporal sample of a full strike
// evolution rooted at the given physical qubit.
func (p *prepared) evolutionSpecs(key string, cfg Config, root int, spread bool, seed uint64) []pointSpec {
	samples := noise.TemporalSamples(cfg.NS)
	specs := make([]pointSpec, len(samples))
	for k, rootProb := range samples {
		specs[k] = p.spec(fmt.Sprintf("%s/t%d", key, k), cfg,
			p.strikeAt(root, rootProb, spread), seed+uint64(k)*7919)
	}
	return specs
}

// usedRoots returns the physical qubits hosting circuit activity, the
// candidate strike roots.
func (p *prepared) usedRoots() []int { return p.tr.Used() }

// medianOverRoots computes, per root, the median-over-time logical error
// of a full strike evolution. All roots' temporal samples go through one
// sweep, so the whole root × time grid shares the worker pool. Point keys
// are prefix/root<R>/t<K>; the prefix names the cell, so a campaign over
// several cells streams no key twice.
func (p *prepared) medianOverRoots(cfg Config, prefix string, seed uint64) ([]int, []float64, []sweep.Result) {
	roots := p.usedRoots()
	ns := len(noise.TemporalSamples(cfg.NS))
	specs := make([]pointSpec, 0, len(roots)*ns)
	for i, root := range roots {
		specs = append(specs,
			p.evolutionSpecs(fmt.Sprintf("%s/root%d", prefix, root), cfg, root, true, seed+uint64(i)*104729)...)
	}
	results := runSpecs(cfg, specs)
	medians := make([]float64, len(roots))
	for i := range roots {
		medians[i] = stats.Median(resultRates(results[i*ns : (i+1)*ns]))
	}
	return roots, medians, results
}

// subgraphEvent builds the "hypernode" event of Figures 6-7: every qubit
// in the member set is reset with probability rootProb, nothing spreads.
func subgraphEvent(numQubits int, members []int, rootProb float64) *noise.RadiationEvent {
	probs := make([]float64, numQubits)
	for _, q := range members {
		probs[q] = rootProb
	}
	return &noise.RadiationEvent{Probs: probs}
}

// sampleUsedSubgraphs samples connected size-k subgraphs of the topology
// restricted to the used physical qubits.
func (p *prepared) sampleUsedSubgraphs(k, count int, src *rng.Source) [][]int {
	used := p.usedRoots()
	idx := make(map[int]int, len(used))
	for i, q := range used {
		idx[q] = i
	}
	sub := newInducedGraph(p.tr, used, idx)
	samples := sub.SampleConnectedSubgraphs(k, count, src)
	out := make([][]int, len(samples))
	for i, s := range samples {
		mapped := make([]int, len(s))
		for j, v := range s {
			mapped[j] = used[v]
		}
		out[i] = mapped
	}
	return out
}
