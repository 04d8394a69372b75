package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"time"

	"radqec/internal/arch"
	"radqec/internal/control"
	"radqec/internal/core"
	"radqec/internal/exp"
	"radqec/internal/frame"
	"radqec/internal/noise"
	"radqec/internal/qec"
	"radqec/internal/stab"
	"radqec/internal/sweep"
	"radqec/internal/trace"
)

// The point-level ledger rebuilds a workload's sweep points from the
// public builders the figures use (same codes, lattices, strikes and
// seed arithmetic as internal/exp), and times the public call into
// each layer around them on one worker: code construction, routing,
// the reference run, runner construction, the shot kernel, the decoder.

// probeGroup is one (code, topology) pair of a workload.
type probeGroup struct {
	build func() (*qec.Code, error) // a fresh instance of the code, cold memos
	code  *qec.Code
	tr    *arch.Transpiled
	dist  [][]int
}

// probePoint is one sweep point: a strike on a group's routed circuit.
type probePoint struct {
	g    *probeGroup
	ev   *noise.RadiationEvent
	phys float64
	seed uint64
	raw  bool // read by the uncorrected ancilla bit, no decoding
}

// maxProbePoints caps how many points of a workload the ledger times;
// larger grids are sampled and scaled back up.
const maxProbePoints = 450

// deepProbes is how many of the timed points also get the warm, bare,
// kernel-only, allocation and syndrome-census passes.
const deepProbes = 16

// groupCosts are the per-(code, topology) set-up costs a figure pays
// once, serially, before its sweep fans out.
type groupCosts struct {
	newCode, transpile, reference, paths []time.Duration
}

type grid struct {
	groups []*probeGroup
	points []probePoint
	costs  groupCosts
}

// addGroup builds (or shares) a code, routes it, and times each step.
func (g *grid) addGroup(shared *qec.Code, build func() (*qec.Code, error), topo arch.Topology) (*probeGroup, error) {
	pg := &probeGroup{build: build, code: shared}
	if pg.code == nil {
		t0 := time.Now()
		code, err := build()
		if err != nil {
			return nil, err
		}
		g.costs.newCode = append(g.costs.newCode, time.Since(t0))
		pg.code = code
	}
	t0 := time.Now()
	tr, err := arch.Transpile(pg.code.Circ, topo)
	if err != nil {
		return nil, err
	}
	g.costs.transpile = append(g.costs.transpile, time.Since(t0))
	t0 = time.Now()
	pg.dist = topo.Graph.AllPairsShortestPaths()
	g.costs.paths = append(g.costs.paths, time.Since(t0))
	t0 = time.Now()
	stab.RunReference(tr.Circuit, 1, nil)
	g.costs.reference = append(g.costs.reference, time.Since(t0))
	pg.tr = tr
	g.groups = append(g.groups, pg)
	return pg, nil
}

func (g *grid) add(pg *probeGroup, ev *noise.RadiationEvent, phys float64, seed uint64, raw bool) {
	g.points = append(g.points, probePoint{g: pg, ev: ev, phys: phys, seed: seed, raw: raw})
}

func strikeAt(pg *probeGroup, root int, prob float64, spread bool) *noise.RadiationEvent {
	return noise.NewRadiationEvent(pg.dist[root], prob, spread)
}

// buildGrid lays out the workload's sweep points.
func buildGrid(w workload, seed uint64) (*grid, error) {
	const phys = 0.01
	g := &grid{}
	rep := func(d, rounds int) func() (*qec.Code, error) {
		return func() (*qec.Code, error) { return qec.NewRepetitionRounds(d, rounds) }
	}
	xxzz := func(dz, dx, rounds int) func() (*qec.Code, error) {
		return func() (*qec.Code, error) { return qec.NewXXZZRounds(dz, dx, rounds) }
	}
	samples := noise.TemporalSamples(noise.DefaultSamples)
	switch w.Experiment {
	case "fig6":
		var builds []func() (*qec.Code, error)
		for _, d := range qec.RepetitionDistances() {
			builds = append(builds, rep(d, 2))
		}
		for _, dd := range qec.XXZZDistances() {
			builds = append(builds, xxzz(dd[0], dd[1], 2))
		}
		for ei, b := range builds {
			pg, err := g.addGroup(nil, b, arch.Mesh(5, 6))
			if err != nil {
				return nil, err
			}
			for ri, root := range pg.tr.Used() {
				s := seed + uint64(ei*99991+ri*31)
				ev := strikeAt(pg, root, 1.0, false)
				g.add(pg, ev, phys, s, false)
				g.add(pg, ev, phys, s+1, true)
			}
		}
	case "memory":
		type entry struct {
			build func(int) func() (*qec.Code, error)
			d     int
		}
		entries := []entry{
			{func(r int) func() (*qec.Code, error) { return rep(5, r) }, 5},
			{func(r int) func() (*qec.Code, error) { return rep(9, r) }, 9},
			{func(r int) func() (*qec.Code, error) { return xxzz(3, 3, r) }, 3},
		}
		for ei, e := range entries {
			rounds := []int{2, 3, 4, 6, 8}
			if !slices.Contains(rounds, e.d) {
				rounds = append(rounds, e.d)
				sort.Ints(rounds)
			}
			for ri, r := range rounds {
				pg, err := g.addGroup(nil, e.build(r), arch.Mesh(5, 6))
				if err != nil {
					return nil, err
				}
				s := seed + uint64(ei*99991+ri*31)
				g.add(pg, noise.NoRadiation(pg.tr.Circuit.NumQubits), phys, s, false)
				g.add(pg, strikeAt(pg, exp.Fig5Root, 1.0, true), phys, s+1, false)
			}
		}
	case "fig5":
		jobs := []struct {
			build func() (*qec.Code, error)
			topo  arch.Topology
		}{{rep(5, 2), arch.Mesh(5, 2)}, {xxzz(3, 3, 2), arch.Mesh(5, 4)}}
		for ji, j := range jobs {
			pg, err := g.addGroup(nil, j.build, j.topo)
			if err != nil {
				return nil, err
			}
			for pi, p := range exp.Fig5PhysicalRates() {
				for k, prob := range samples {
					g.add(pg, strikeAt(pg, exp.Fig5Root, prob, true), p,
						seed+uint64(ji*1000003+pi*1009+k*13), false)
				}
			}
		}
	case "fig8":
		jobs := []struct {
			build func() (*qec.Code, error)
			topos []arch.Topology
		}{{rep(11, 2), exp.Fig8RepTopologies()}, {xxzz(3, 3, 2), exp.Fig8XXZZTopologies()}}
		for ji, j := range jobs {
			var shared *qec.Code // one code instance serves every topology of a job
			for ti, topo := range j.topos {
				pg, err := g.addGroup(shared, j.build, topo)
				if err != nil {
					return nil, err
				}
				shared = pg.code
				base := seed + uint64(ji*5+ti)*179424673
				for i, root := range pg.tr.Used() {
					for k, prob := range samples {
						g.add(pg, strikeAt(pg, root, prob, true), phys,
							base+uint64(i)*104729+uint64(k)*7919, false)
					}
				}
			}
		}
	default:
		return nil, fmt.Errorf("bench: no point grid for experiment %q", w.Experiment)
	}
	return g, nil
}

// pick chooses at most n of the candidate point indices, spread over
// the grid by a fixed multiplicative hash — a plain stride aliases with
// grids that cycle through point kinds (decoded/raw, the ten temporal
// samples) — and returns them in grid order.
func pick(candidates []int, n int) []int {
	if len(candidates) <= n {
		return candidates
	}
	out := append([]int(nil), candidates...)
	sort.Slice(out, func(a, b int) bool {
		return uint32(out[a])*2654435761 < uint32(out[b])*2654435761
	})
	out = out[:n]
	sort.Ints(out)
	return out
}

// sampled picks at most maxProbePoints points of the grid and returns
// how many grid points each one stands for.
func (g *grid) sampled() (idx []int, scale float64) {
	all := make([]int, len(g.points))
	for i := range all {
		all[i] = i
	}
	idx = pick(all, maxProbePoints)
	return idx, float64(len(all)) / float64(len(idx))
}

// tileWrapper is the harness's span around code.DecodeTile: handed to
// core.NewEngineRunner as the frame.TileDecodeFunc, it records one
// span per tile under the run span that caused it.
type tileWrapper struct {
	spans  *spanLog
	parent int
	inner  frame.TileDecodeFunc
	tiles  int64
	lanes  int64
}

func (t *tileWrapper) decode(rec []uint64, w int, live, out []uint64) {
	var lanes int64
	for _, l := range live[:w] {
		lanes += int64(bits.OnesCount64(l))
	}
	id := t.spans.begin("qec.DecodeTile", t.parent)
	t.inner(rec, w, live, out)
	t.spans.end(id, lanes)
	t.tiles++
	t.lanes += lanes
}

func (p probePoint) decoders() (func([]int) int, frame.TileDecodeFunc) {
	if p.raw {
		return p.g.code.RawLogical, p.g.code.RawLogicalTile
	}
	return p.g.code.Decode, p.g.code.DecodeTile
}

// runner builds the point's batch-engine runner on one worker, exactly
// as the experiment sweeps do.
func (p probePoint) runner(code *qec.Code, tile frame.TileDecodeFunc) core.EngineRunner {
	return core.NewEngineRunner(core.EngineBatch, p.g.tr.Circuit, noise.NewDepolarizing(p.phys),
		p.ev, p.seed, code.ExpectedLogical(), code.Decode, tile, 0, 1)
}

// layerLedger is what the point-level passes measured.
type layerLedger struct {
	points, sampledPoints int
	scale                 float64
	shotsPerPoint         int

	setup, coldRun, coldDecode time.Duration // over the sampled points
	coldShots                  int64
	tiles, liveLanes           int64

	warmRun, warmDecode, bareRun, kernelRun time.Duration
	warmShots                               int64
	warmAllocBytes                          uint64

	decodeAllocBytes uint64
	censusShots      int64
	triggered        int64
	distinct         []int

	demCompile time.Duration
	costs      groupCosts
}

// timePoints runs the cold pass over the sampled points and the deep
// passes over a few of them.
func timePoints(w workload, seed uint64, spans *spanLog) (*layerLedger, error) {
	g, err := buildGrid(w, seed)
	if err != nil {
		return nil, err
	}
	idx, scale := g.sampled()
	shots := w.shots()
	led := &layerLedger{points: len(g.points), sampledPoints: len(idx), scale: scale,
		shotsPerPoint: shots, costs: g.costs}

	var decoded []int // sampled points that decode, candidates for the deep passes
	for _, i := range idx {
		p := g.points[i]
		_, tile := p.decoders()
		wrap := &tileWrapper{spans: spans, inner: tile}
		pid := spans.begin("point", -1)
		sid := spans.begin("core.NewEngineRunner", pid)
		run := p.runner(p.g.code, wrap.decode)
		led.setup += spans.end(sid, 0)
		wrap.parent = spans.begin("frame.run.cold", pid)
		n, _ := run(0, shots)
		led.coldRun += spans.end(wrap.parent, int64(n))
		spans.end(pid, int64(n))
		led.coldShots += int64(n)
		led.tiles += wrap.tiles
		led.liveLanes += wrap.lanes
		if !p.raw {
			decoded = append(decoded, i)
		}
	}
	led.coldDecode = spans.childTotal("qec.DecodeTile", "frame.run.cold")

	for _, i := range pick(decoded, deepProbes) {
		if err := led.deepPasses(g.points[i], shots, spans); err != nil {
			return nil, err
		}
	}
	led.warmDecode = spans.childTotal("qec.DecodeTile", "frame.run.warm")

	// The deepest code's detector-error model, compiled cold.
	deepest := g.groups[0]
	for _, pg := range g.groups {
		if m, d := pg.code.DEM(), deepest.code.DEM(); m.NumStabs*m.Layers > d.NumStabs*d.Layers {
			deepest = pg
		}
	}
	fresh, err := deepest.build()
	if err != nil {
		return nil, err
	}
	id := spans.begin("dem.Compile", -1)
	fresh.DEM()
	led.demCompile = spans.end(id, 0)
	return led, nil
}

// warmCalls is how many untimed and timed calls of run(0, shots) the
// warm pass makes after the cold one: 15 + 5 at the CLI's default
// 2000 shots per point ("warm = after 20 calls"), fewer when one call
// already covers that many shots, so paper-scale points stay cheap.
func warmCalls(shots int) (warmup, timed int) {
	return min(max(30000/shots, 1), 15), min(max(10000/shots, 2), 5)
}

// deepPasses measures one point warm (wrapped and bare decoder), the
// kernel alone, and — on a fresh code instance, so the memos are cold
// again — the decoder's allocations and the syndrome census.
func (led *layerLedger) deepPasses(p probePoint, shots int, spans *spanLog) error {
	timed := func(name string, run core.EngineRunner, wrap *tileWrapper) time.Duration {
		id := spans.begin(name, -1)
		if wrap != nil {
			wrap.parent = id
		}
		n, _ := run(0, shots)
		return spans.end(id, int64(n))
	}
	warmupCalls, timedCalls := warmCalls(shots)
	code := p.g.code
	wrap := &tileWrapper{spans: spans, inner: code.DecodeTile, parent: -1}
	wrapped := p.runner(code, wrap.decode)
	bare := p.runner(code, code.DecodeTile)
	kernel := p.runner(code, code.RawLogicalTile)
	for i := 0; i < warmupCalls; i++ {
		wrapped(0, shots)
	}
	// The memos are per code, so they are warm for the other two runners
	// as well; these calls warm only their tile states.
	for i := 0; i < 3; i++ {
		bare(0, shots)
		kernel(0, shots)
	}
	// The three runners take turns, so drift in the host's speed lands
	// on all of them alike.
	for i := 0; i < timedCalls; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		led.warmRun += timed("frame.run.warm", wrapped, wrap)
		runtime.ReadMemStats(&after)
		led.warmAllocBytes += after.TotalAlloc - before.TotalAlloc
		led.bareRun += timed("frame.run.bare", bare, nil)
		led.kernelRun += timed("frame.run.kernel", kernel, nil)
	}
	led.warmShots += int64(timedCalls * shots)

	fresh, err := p.g.build()
	if err != nil {
		return err
	}
	fresh.DEM() // compiled here so the census pass sees decoding only
	census := &syndromeCensus{code: fresh, seen: map[[2]uint64]struct{}{}}
	p.runner(fresh, census.decode)(0, shots)
	led.decodeAllocBytes += census.allocBytes
	led.censusShots += census.lanes
	led.triggered += census.triggered
	led.distinct = append(led.distinct, len(census.seen))
	return nil
}

// syndromeCensus is a decode wrapper for the untimed pass: it brackets
// the decoder with MemStats reads (one worker, so the delta is the
// decoder's own) and counts, from the detection events of the records
// it saw, how many lanes carried a syndrome and how many distinct
// syndromes the point produced — the decoder cache's working set.
type syndromeCensus struct {
	code       *qec.Code
	allocBytes uint64
	lanes      int64
	triggered  int64
	seen       map[[2]uint64]struct{}
	word, dst  []uint64
}

func (c *syndromeCensus) decode(rec []uint64, w int, live, out []uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c.code.DecodeTile(rec, w, live, out)
	runtime.ReadMemStats(&after)
	c.allocBytes += after.TotalAlloc - before.TotalAlloc

	nclbits := len(rec) / w
	if cap(c.word) < nclbits {
		c.word = make([]uint64, nclbits)
	}
	c.word = c.word[:nclbits]
	for k := 0; k < w; k++ {
		for b := range c.word {
			c.word[b] = rec[b*w+k]
		}
		var anyLane uint64
		c.dst, anyLane = c.code.DetectionEventWords(c.word, c.dst)
		c.lanes += int64(bits.OnesCount64(live[k]))
		for m := anyLane & live[k]; m != 0; m &= m - 1 {
			lane := uint(bits.TrailingZeros64(m))
			var key [2]uint64
			for i, word := range c.dst {
				// Exact up to 128 detector bits, which covers every
				// code of the repo's workloads; deeper models fold.
				key[(i/64)%2] ^= ((word >> lane) & 1) << uint(i%64)
			}
			c.triggered++
			c.seen[key] = struct{}{}
		}
	}
}

func meanDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t / time.Duration(len(ds))
}

func sumDur(ds []time.Duration) (t time.Duration) {
	for _, d := range ds {
		t += d
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metrics folds the ledger into the point-level per-layer metrics.
func (led *layerLedger) metrics() map[string]float64 {
	perShot := func(d time.Duration, shots int64) float64 { return ratio(float64(d.Nanoseconds()), float64(shots)) }
	total := (led.setup + led.coldRun).Seconds()
	var distinct float64
	for _, n := range led.distinct {
		distinct += float64(n)
	}
	return map[string]float64{
		"qec.decode_cold_ns_per_shot":      perShot(led.coldDecode, led.coldShots),
		"qec.decode_warm_ns_per_shot":      perShot(led.warmDecode, led.warmShots),
		"qec.decode_share":                 ratio(led.coldDecode.Seconds(), total),
		"qec.decode_alloc_bytes_per_shot":  ratio(float64(led.decodeAllocBytes), float64(led.censusShots)),
		"qec.triggered_share":              ratio(float64(led.triggered), float64(led.censusShots)),
		"qec.distinct_syndromes_per_point": ratio(distinct, float64(len(led.distinct))),
		"qec.tiles":                        float64(led.tiles),
		"qec.live_lanes":                   float64(led.liveLanes),
		"dem.compile_ms":                   ms(led.demCompile),
		"frame.kernel_ns_per_shot":         perShot(led.kernelRun, led.warmShots),
		"frame.self_ns_per_shot":           perShot(led.warmRun-led.warmDecode, led.warmShots),
		"frame.run_cold_ns_per_shot":       perShot(led.coldRun, led.coldShots),
		"frame.run_warm_ns_per_shot":       perShot(led.warmRun, led.warmShots),
		"frame.alloc_bytes_per_shot_warm":  ratio(float64(led.warmAllocBytes), float64(led.warmShots)),
		"core.new_runner_us":               ratio(us(led.setup), float64(led.sampledPoints)),
		"stab.run_reference_us":            us(meanDur(led.costs.reference)),
		"arch.transpile_ms":                ms(meanDur(led.costs.transpile)),
		"qec.new_code_us":                  us(meanDur(led.costs.newCode)),
		"core.setup_share":                 ratio(led.setup.Seconds(), total),
		"bench.wrap_overhead_share":        ratio((led.warmRun - led.bareRun).Seconds(), led.bareRun.Seconds()),
	}
}

// predictedMS is the ledger's account of one whole campaign: the
// serial figure set-up plus the sampled points' set-up and cold run,
// scaled to the full grid and divided across the workers.
func (led *layerLedger) predictedMS(workers int) float64 {
	serial := sumDur(led.costs.newCode) + sumDur(led.costs.transpile) + sumDur(led.costs.paths)
	parallel := time.Duration(float64(led.setup+led.coldRun) * led.scale / float64(workers))
	return ms(serial + parallel)
}

// expConfig is the in-process twin of the CLI invocation cliArgs
// builds: the same values the radqec flags default to.
func expConfig(w workload, seed uint64, workers int) exp.Config {
	return exp.Config{
		Shots: w.shots(), Seed: seed, Workers: workers,
		P: 0.01, NS: noise.DefaultSamples, Rounds: 2,
		Engine: exp.EngineAuto, Width: core.WidthAuto, Decoder: exp.DecoderMWPM,
		Control: controllerPolicy(),
	}
}

// controllerPolicy is the controller both binaries enable by default.
func controllerPolicy() *control.Policy {
	return &control.Policy{Enabled: true, Dwell: 4, Hysteresis: 0.15}
}

// expRun is one in-process campaign.
type expRun struct {
	Wall          time.Duration
	Digest        opDigest
	AllocBytes    uint64
	Mallocs       uint64
	GCPause       time.Duration
	Points, Shots int64
}

// runExp runs the workload's experiment in this process, streaming
// point records into a buffer the way the CLI streams them to its
// pipe, and digests the stream after the clock stops.
func runExp(w workload, cfg exp.Config, sampled bool, spans *spanLog) (expRun, error) {
	e, ok := exp.Find(w.Experiment)
	if !ok {
		return expRun{}, fmt.Errorf("bench: experiment %q not registered", w.Experiment)
	}
	var (
		buf bytes.Buffer
		out expRun
	)
	enc := json.NewEncoder(&buf)
	cfg.OnPoint = func(r sweep.Result) {
		out.Points++
		out.Shots += int64(r.Shots)
		enc.Encode(exp.NewPointRecord(e.Name, r))
	}
	var root trace.ActiveSpan
	name := "exp.Run"
	if sampled {
		root = trace.New("bench").Campaign(e.Name)
		cfg.Trace = root.Context()
		name = "exp.Run.sampled"
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id := spans.begin(name, -1)
	tab, err := e.Run(cfg)
	out.Wall = spans.end(id, out.Shots)
	runtime.ReadMemStats(&after)
	if sampled {
		root.End()
	}
	if err != nil {
		return out, err
	}
	out.AllocBytes = after.TotalAlloc - before.TotalAlloc
	out.Mallocs = after.Mallocs - before.Mallocs
	out.GCPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	enc.Encode(exp.NewTableRecord(e.Name, tab, out.Wall))
	out.Digest, err = digestStream(buf.Bytes())
	return out, err
}
