// Package radqec's root benchmark harness: one benchmark per figure of
// the paper's evaluation (regenerating the same series at reduced shot
// counts so `go test -bench` stays tractable), plus the ablation benches
// for the design choices called out in DESIGN.md and microbenches for
// the hot substrates.
//
// Regenerate any figure at paper-scale statistics with the CLI, e.g.:
//
//	go run ./cmd/radqec -shots 20000 fig6
package radqec

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"radqec/internal/arch"
	"radqec/internal/control"
	"radqec/internal/core"
	"radqec/internal/exp"
	"radqec/internal/frame"
	"radqec/internal/inject"
	"radqec/internal/matching"
	"radqec/internal/noise"
	"radqec/internal/qec"
	"radqec/internal/rng"
	"radqec/internal/store"
	"radqec/internal/sweep"
	"radqec/internal/trace"
)

// benchCfg returns a reduced configuration that still exercises every
// code path of the experiment.
func benchCfg(shots int) exp.Config {
	return exp.Config{Shots: shots, Seed: 1, NS: 4}
}

func BenchmarkFig3TemporalDecay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := exp.Fig3(benchCfg(1)); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFig4SpatialDecay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := exp.Fig4(benchCfg(1)); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFig5Landscape(b *testing.B) {
	b.Run("rep", func(b *testing.B) {
		sim := mustSim(b, core.Options{
			Code:     core.CodeSpec{Family: core.FamilyRepetition, DZ: 5},
			Topology: "mesh", Shots: 50, Seed: 1, TemporalSamples: 4,
		})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = sim.Strike(exp.Fig5Root)
		}
	})
	b.Run("xxzz", func(b *testing.B) {
		sim := mustSim(b, core.Options{
			Code:     core.CodeSpec{Family: core.FamilyXXZZ, DZ: 3, DX: 3},
			Topology: "mesh", Shots: 50, Seed: 1, TemporalSamples: 4,
		})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = sim.Strike(exp.Fig5Root)
		}
	})
}

func BenchmarkFig6Distance(b *testing.B) {
	b.Run("rep", func(b *testing.B) {
		sim := mustSim(b, core.Options{
			Code:     core.CodeSpec{Family: core.FamilyRepetition, DZ: 15},
			Topology: "mesh", Shots: 50, Seed: 1,
		})
		roots := sim.UsedQubits()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = sim.StrikeAtImpact(roots[i%len(roots)], false)
		}
	})
	b.Run("xxzz", func(b *testing.B) {
		sim := mustSim(b, core.Options{
			Code:     core.CodeSpec{Family: core.FamilyXXZZ, DZ: 3, DX: 5},
			Topology: "mesh", Shots: 50, Seed: 1,
		})
		roots := sim.UsedQubits()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = sim.StrikeAtImpact(roots[i%len(roots)], false)
		}
	})
}

func BenchmarkFig7Spread(b *testing.B) {
	run := func(b *testing.B, spec core.CodeSpec, k int) {
		sim := mustSim(b, core.Options{
			Code: spec, Topology: "mesh", Shots: 50, Seed: 1,
		})
		src := rng.New(2)
		subs := sim.Transpiled().Topo.Graph.SampleConnectedSubgraphs(k, 8, src)
		if len(subs) == 0 {
			b.Fatal("no subgraphs")
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = sim.Erase(subs[i%len(subs)])
		}
	}
	b.Run("rep", func(b *testing.B) {
		run(b, core.CodeSpec{Family: core.FamilyRepetition, DZ: 15}, 15)
	})
	b.Run("xxzz", func(b *testing.B) {
		run(b, core.CodeSpec{Family: core.FamilyXXZZ, DZ: 3, DX: 3}, 9)
	})
}

func BenchmarkFig8Architecture(b *testing.B) {
	run := func(b *testing.B, spec core.CodeSpec, topo string) {
		sim := mustSim(b, core.Options{
			Code: spec, Topology: topo, Shots: 25, Seed: 1, TemporalSamples: 3,
		})
		roots := sim.UsedQubits()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = sim.Strike(roots[i%len(roots)]).Median()
		}
	}
	b.Run("rep/linear", func(b *testing.B) {
		run(b, core.CodeSpec{Family: core.FamilyRepetition, DZ: 11}, "linear")
	})
	b.Run("rep/brooklyn", func(b *testing.B) {
		run(b, core.CodeSpec{Family: core.FamilyRepetition, DZ: 11}, "brooklyn")
	})
	b.Run("xxzz/mesh", func(b *testing.B) {
		run(b, core.CodeSpec{Family: core.FamilyXXZZ, DZ: 3, DX: 3}, "mesh")
	})
	b.Run("xxzz/cairo", func(b *testing.B) {
		run(b, core.CodeSpec{Family: core.FamilyXXZZ, DZ: 3, DX: 3}, "cairo")
	})
}

// Ablation benches (DESIGN.md): decoder choice, temporal resolution,
// layout strategy.

func BenchmarkAblationDecoder(b *testing.B) {
	code, err := qec.NewXXZZ(3, 3)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := arch.Transpile(code.Circ, arch.Mesh(5, 4))
	if err != nil {
		b.Fatal(err)
	}
	dist := tr.Topo.Graph.AllPairsShortestPaths()
	ev := noise.NewRadiationEvent(dist[2], 1.0, true)
	ex := inject.NewExecutor(tr.Circuit, noise.NewDepolarizing(0.01), ev)
	bits := ex.Run(rng.New(3))
	b.Run("blossom", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = code.Decode(bits)
		}
	})
	b.Run("union-find", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = code.DecodeUnionFind(bits)
		}
	})
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = code.DecodeGreedy(bits)
		}
	})
}

func BenchmarkAblationNs(b *testing.B) {
	for _, ns := range []int{5, 10, 20} {
		b.Run(nsName(ns), func(b *testing.B) {
			sim := mustSim(b, core.Options{
				Code:     core.CodeSpec{Family: core.FamilyRepetition, DZ: 5},
				Topology: "mesh", Shots: 25, Seed: 1, TemporalSamples: ns,
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = sim.Strike(2)
			}
		})
	}
}

func nsName(ns int) string {
	switch ns {
	case 5:
		return "ns5"
	case 10:
		return "ns10"
	default:
		return "ns20"
	}
}

func BenchmarkAblationRouter(b *testing.B) {
	code, err := qec.NewXXZZ(3, 3)
	if err != nil {
		b.Fatal(err)
	}
	topo := arch.Cairo()
	b.Run("compact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := arch.TranspileWithLayout(code.Circ, topo, arch.LayoutCompact); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("trivial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := arch.TranspileWithLayout(code.Circ, topo, arch.LayoutTrivial); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Sweep-engine benches: the same campaign grid run with fixed shot
// allocation versus adaptive Wilson-interval allocation. The adaptive
// run targets the half-width the fixed run only guarantees at its full
// per-point budget, so the ns/op gap is the shots the stopping rule
// saves.

func sweepBenchPoints(b *testing.B) []sweep.Point {
	b.Helper()
	code, err := qec.NewRepetition(5)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := arch.Transpile(code.Circ, arch.Mesh(5, 2))
	if err != nil {
		b.Fatal(err)
	}
	dist := tr.Topo.Graph.AllPairsShortestPaths()
	var pts []sweep.Point
	for root := 0; root < 6; root++ {
		ev := noise.NewRadiationEvent(dist[root], 1.0, true)
		seed := uint64(root + 1)
		pts = append(pts, sweep.Point{
			Key: "bench",
			Prepare: func() sweep.BatchRunner {
				camp := &inject.Campaign{
					Exec:     inject.NewExecutor(tr.Circuit, noise.NewDepolarizing(0.01), ev),
					Decode:   code.Decode,
					Expected: code.ExpectedLogical(),
				}
				return func(start, n int) sweep.Counts {
					r := camp.RunFrom(seed, start, n)
					return sweep.Counts{Shots: r.Shots, Errors: r.Errors}
				}
			},
		})
	}
	return pts
}

func BenchmarkSweepFixed(b *testing.B) {
	shots := sweep.WorstCaseShots(0.05)
	pts := sweepBenchPoints(b) // Prepare re-runs per sweep, so reuse is safe
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep.Run(context.Background(), sweep.Config{Policy: sweep.Policy{Shots: shots}}, pts)
	}
}

func BenchmarkSweepAdaptive(b *testing.B) {
	pts := sweepBenchPoints(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep.Run(context.Background(), sweep.Config{Policy: sweep.Policy{CI: 0.05}}, pts)
	}
}

// Mixed heterogeneous campaigns on one shared pool against a cold
// store — the daemon's steady-state shape: a duplicated fig5 repetition
// campaign (the single-flight dedup target), a fig6 XXZZ campaign and a
// multi-round memory campaign, all concurrent. The acceptance metric is
// the Controller variant's aggregate shots/s: >= 1.3x the Static
// scheduler's on this mix, because identical in-flight points are
// computed once and replayed to the duplicate while static campaigns
// race each other through the same points.
func benchMixedCampaigns(b *testing.B, pol *control.Policy, delivered *int64, traced bool) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, err := store.Open(b.TempDir(), store.Options{})
		if err != nil {
			b.Fatal(err)
		}
		// The tracing variants share one campaign root per iteration:
		// traced=false is the zero-cost contract (a zero SpanContext, the
		// exact daemon configuration with sampling off), traced=true
		// records every point/chunk/commit span into the ring.
		var tc trace.SpanContext
		var root trace.ActiveSpan
		if traced {
			root = trace.New("bench").Campaign("bench")
			tc = root.Context()
		}
		// A bounded pool keeps the campaigns contending for workers — the
		// regime the controller's single-flight, priorities and weighting
		// are for. The memory campaign is resubmitted identically three
		// times, the cold-daemon burst the single-flight satellite targets:
		// its uniform point costs keep the copies in lockstep, so the
		// static path recomputes in-flight duplicates the cache cannot yet
		// serve, while controller followers park on the leader's hash and
		// replay its commit.
		sched := sweep.NewScheduler(4)
		b.StartTimer()

		base := exp.Config{Seed: 11, NS: 4, Workers: 2, Scheduler: sched, Cache: st, Control: pol, Trace: tc,
			OnPoint: func(r sweep.Result) { atomic.AddInt64(delivered, int64(r.Shots)) }}
		var wg sync.WaitGroup
		run := func(name string, cfg exp.Config) {
			defer wg.Done()
			e, ok := exp.Find(name)
			if !ok {
				b.Errorf("experiment %s not registered", name)
				return
			}
			if _, err := e.Run(cfg); err != nil {
				b.Error(err)
			}
		}
		fig5 := base
		fig5.Shots = 1024
		fig6 := base
		fig6.Shots = 128
		mem := base
		mem.Shots = 2048
		wg.Add(5)
		go run("fig5", fig5)
		go run("fig6", fig6)
		go run("memory", mem)
		go run("memory", mem) // identical resubmissions: dedup under
		go run("memory", mem) // single-flight on the cold daemon
		wg.Wait()
		root.End() // no-op when untraced

		b.StopTimer()
		sched.Close()
		st.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(atomic.LoadInt64(delivered))/b.Elapsed().Seconds(), "shots/s")
}

func BenchmarkSweepMixedCampaignsStatic(b *testing.B) {
	var shots int64
	benchMixedCampaigns(b, nil, &shots, false)
}

func BenchmarkSweepMixedCampaignsController(b *testing.B) {
	var shots int64
	benchMixedCampaigns(b, control.Default(), &shots, false)
}

// Tracing variants of the controller mix. TracingOff is the daemon's
// default configuration (sampling off — the zero SpanContext the
// zero-cost contract is about), to be read against the Controller
// anchor; TracingSampled records the full span tree and measures what
// sampling a campaign costs.
func BenchmarkSweepMixedCampaignsTracingOff(b *testing.B) {
	var shots int64
	benchMixedCampaigns(b, control.Default(), &shots, false)
}

func BenchmarkSweepMixedCampaignsTracingSampled(b *testing.B) {
	var shots int64
	benchMixedCampaigns(b, control.Default(), &shots, true)
}

// Engine benches: the Fig. 5 repetition-code campaign grid (8 physical
// error rates x 10 temporal samples of a spreading strike at the
// paper's root, decode included) sampled by the scalar frame engine
// versus the bit-parallel batched engine. The reported shots/s is the
// acceptance metric of the batched engine: >= 10x scalar on this grid.

func benchFig5RepGrid(b *testing.B, batched bool) {
	code, err := qec.NewRepetition(5)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := arch.Transpile(code.Circ, arch.Mesh(5, 2))
	if err != nil {
		b.Fatal(err)
	}
	dist := tr.Topo.Graph.AllPairsShortestPaths()
	samples := noise.TemporalSamples(10)
	const shots = 2048
	// Campaigns are built once, outside the timer: the series measures
	// steady-state engine throughput, matching how the sweep engine
	// reuses one campaign across every chunk of a point.
	type gridRun struct {
		run  func(seed uint64, shots int) frame.Result
		seed uint64
	}
	var grid []gridRun
	for pi, p := range exp.Fig5PhysicalRates() {
		for k, rootProb := range samples {
			ev := noise.NewRadiationEvent(dist[exp.Fig5Root], rootProb, true)
			sim := frame.New(tr.Circuit, noise.NewDepolarizing(p), ev, 1)
			seed := uint64(pi*1009 + k*13)
			if batched {
				camp := &frame.BatchCampaign{
					Sim:        frame.NewBatchSimulator(sim),
					DecodeTile: code.DecodeTile,
					Expected:   code.ExpectedLogical(),
					Workers:    1,
				}
				grid = append(grid, gridRun{camp.Run, seed})
			} else {
				camp := &frame.Campaign{
					Sim:      sim,
					Decode:   code.Decode,
					Expected: code.ExpectedLogical(),
					Workers:  1,
				}
				grid = append(grid, gridRun{camp.Run, seed})
			}
		}
	}
	total := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range grid {
			g.run(g.seed, shots)
			total += shots
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "shots/s")
}

func BenchmarkFrameEnginesFig5Rep(b *testing.B) {
	b.Run("scalar", func(b *testing.B) { benchFig5RepGrid(b, false) })
	b.Run("batched", func(b *testing.B) { benchFig5RepGrid(b, true) })
}

// The XXZZ acceptance pair: a Fig. 6-style d=3 XXZZ grid (full-impact
// erasure at each of the first rootCount used physical qubits, decode
// included) sampled by the exact-oracle tableau engine versus the
// universal batched frame engine. The reported shots/s ratio is the
// acceptance metric of the universal engine: >= 5x tableau on this
// grid.
func benchFig6XXZZGrid(b *testing.B, engine string) {
	code, err := qec.NewXXZZ(3, 3)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := arch.Transpile(code.Circ, arch.Mesh(5, 4))
	if err != nil {
		b.Fatal(err)
	}
	dist := tr.Topo.Graph.AllPairsShortestPaths()
	roots := tr.Used()
	const rootCount = 6
	if len(roots) > rootCount {
		roots = roots[:rootCount]
	}
	const shots = 2048
	// Campaigns are built once, outside the timer, so the series
	// measures steady-state engine throughput (the sweep engine reuses
	// one campaign across every chunk of a point the same way).
	runs := make([]core.EngineRunner, len(roots))
	for ri, root := range roots {
		ev := noise.NewRadiationEvent(dist[root], 1.0, false)
		seed := uint64(ri*1009 + 7)
		runs[ri] = core.NewEngineRunner(engine, tr.Circuit,
			noise.NewDepolarizing(0.01), ev, seed,
			code.ExpectedLogical(), code.Decode, code.DecodeTile, 0, 1)
	}
	total := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, run := range runs {
			run(0, shots)
			total += shots
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "shots/s")
}

func BenchmarkFrameEnginesFig6XXZZ(b *testing.B) {
	b.Run("tableau", func(b *testing.B) { benchFig6XXZZGrid(b, core.EngineTableau) })
	b.Run("batched", func(b *testing.B) { benchFig6XXZZGrid(b, core.EngineBatch) })
}

// Microbenches for the hot substrates.

func BenchmarkShotRepetition15(b *testing.B) {
	code, err := qec.NewRepetition(15)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := arch.Transpile(code.Circ, arch.Mesh(5, 6))
	if err != nil {
		b.Fatal(err)
	}
	dist := tr.Topo.Graph.AllPairsShortestPaths()
	ev := noise.NewRadiationEvent(dist[12], 1.0, true)
	ex := inject.NewExecutor(tr.Circuit, noise.NewDepolarizing(0.01), ev)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bits := ex.Run(rng.New(uint64(i)))
		_ = code.Decode(bits)
		inject.ReleaseBits(bits)
	}
}

func BenchmarkShotXXZZ33(b *testing.B) {
	code, err := qec.NewXXZZ(3, 3)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := arch.Transpile(code.Circ, arch.Mesh(5, 4))
	if err != nil {
		b.Fatal(err)
	}
	dist := tr.Topo.Graph.AllPairsShortestPaths()
	ev := noise.NewRadiationEvent(dist[2], 1.0, true)
	ex := inject.NewExecutor(tr.Circuit, noise.NewDepolarizing(0.01), ev)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bits := ex.Run(rng.New(uint64(i)))
		_ = code.Decode(bits)
		inject.ReleaseBits(bits)
	}
}

func BenchmarkTranspileBrooklyn(b *testing.B) {
	code, err := qec.NewRepetition(11)
	if err != nil {
		b.Fatal(err)
	}
	topo := arch.Brooklyn()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := arch.Transpile(code.Circ, topo); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatchingDecoderGraph(b *testing.B) {
	// A dense 24-defect matching instance, representative of heavy
	// corruption on the distance-(15,1) repetition code.
	src := rng.New(5)
	n := 48
	var edges []matching.Edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, matching.Edge{I: i, J: j, W: int64(src.Intn(12))})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := matching.MinWeightPerfectMatching(n, edges); err != nil {
			b.Fatal(err)
		}
	}
}

func mustSim(b *testing.B, opts core.Options) *core.Simulator {
	b.Helper()
	sim, err := core.NewSimulator(opts)
	if err != nil {
		b.Fatal(err)
	}
	return sim
}
