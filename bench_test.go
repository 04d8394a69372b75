// Package radqec's root go-test benchmarks: the few series no layer of
// the benchmark harness (bench/, `bash bench/run.sh`) covers — the
// mixed-campaign pool with tracing off and sampled, the batched engine
// on the Fig. 5 repetition grid, and the engine acceptance pair tableau
// vs batched on the Fig. 6 XXZZ grid. They are for by-hand ratios;
// throughput claims go through the harness.
package radqec

import (
	"sync"
	"sync/atomic"
	"testing"

	"radqec/internal/arch"
	"radqec/internal/core"
	"radqec/internal/exp"
	"radqec/internal/frame"
	"radqec/internal/noise"
	"radqec/internal/qec"
	"radqec/internal/store"
	"radqec/internal/sweep"
	"radqec/internal/trace"
)

// Mixed heterogeneous campaigns on one shared pool against a cold
// store — the daemon's steady-state shape: a fig5 repetition campaign,
// a fig6 XXZZ campaign and a multi-round memory campaign submitted
// three times over, all concurrent. The identical memory resubmissions
// are the cold-daemon burst single-flight exists for: followers skip
// the hashes the leader has in flight and replay its commits.
func benchMixedCampaigns(b *testing.B, traced bool) {
	var delivered atomic.Int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, err := store.Open(b.TempDir(), store.Options{})
		if err != nil {
			b.Fatal(err)
		}
		// One campaign root per iteration: traced=false is the zero-cost
		// contract (a zero SpanContext, the exact daemon configuration
		// with sampling off), traced=true records every
		// point/chunk/commit span into the ring.
		var tc trace.SpanContext
		var root trace.ActiveSpan
		if traced {
			root = trace.New("bench").Campaign("bench")
			tc = root.Context()
		}
		// A bounded pool keeps the campaigns contending for workers.
		sched := sweep.NewScheduler(4)
		b.StartTimer()

		base := exp.Config{Seed: 11, NS: 4, Workers: 2, Scheduler: sched, Cache: st, Trace: tc,
			OnPoint: func(r sweep.Result) { delivered.Add(int64(r.Shots)) }}
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
		go run("memory", mem) // identical resubmissions: computed once
		go run("memory", mem) // under single-flight on the cold daemon
		wg.Wait()
		root.End() // no-op when untraced

		b.StopTimer()
		sched.Close()
		st.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(delivered.Load())/b.Elapsed().Seconds(), "shots/s")
}

// BenchmarkSweepMixedCampaigns is the daemon's default configuration:
// sampling off, the zero SpanContext the zero-cost contract is about.
func BenchmarkSweepMixedCampaigns(b *testing.B) { benchMixedCampaigns(b, false) }

// BenchmarkSweepMixedCampaignsTracingSampled records the full span tree;
// read against the plain run it is what sampling a campaign costs.
func BenchmarkSweepMixedCampaignsTracingSampled(b *testing.B) { benchMixedCampaigns(b, true) }

// The Fig. 5 repetition-code campaign grid (8 physical error rates x 10
// temporal samples of a spreading strike at the paper's root, decode
// included) sampled by the bit-parallel batched engine.
func BenchmarkFrameEnginesFig5Rep(b *testing.B) {
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
		camp *frame.BatchCampaign
		seed uint64
	}
	var grid []gridRun
	for pi, p := range exp.Fig5PhysicalRates() {
		for k, rootProb := range samples {
			ev := noise.NewRadiationEvent(dist[exp.Fig5Root], rootProb, true)
			camp := &frame.BatchCampaign{
				Sim:        frame.NewBatch(tr.Circuit, noise.NewDepolarizing(p), ev, 1),
				DecodeTile: code.DecodeTile,
				Expected:   code.ExpectedLogical(),
			}
			grid = append(grid, gridRun{camp, uint64(pi*1009 + k*13)})
		}
	}
	total := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range grid {
			g.camp.Run(g.seed, shots)
			total += shots
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "shots/s")
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
