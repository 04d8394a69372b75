package sweep

import (
	"runtime/metrics"
	"sort"
	"time"

	"radqec/internal/control"
	"radqec/internal/faultinject"
	"radqec/internal/stats"
	"radqec/internal/telemetry"
	"radqec/internal/trace"
)

// workerState is the per-worker scratch a pool worker threads through
// the points it executes: the sorted buffer for tail statistics and the
// runtime/metrics sample used for allocation deltas.
type workerState struct {
	scratch []float64
	msample []metrics.Sample
}

// allocBytes reads the process-wide cumulative heap-allocation counter.
// The delta across a chunk is a memory-pressure signal attributed to
// the chunk but global to the process, as documented on the telemetry
// Signal.
func (ws *workerState) allocBytes() int64 {
	if ws.msample == nil {
		ws.msample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	}
	metrics.Read(ws.msample)
	return int64(ws.msample[0].Value.Uint64())
}

// pointRun is the resumable execution state of one point — the old
// runPoint loop unrolled into a state machine so the scheduler can run
// a point one policy batch at a time and interleave campaigns between
// batches. The policy-batch boundaries, stop-rule evaluations and
// checkpoint/commit decisions replicate the loop exactly; only the
// mechanism (how a batch is split into engine calls, and when the next
// batch is scheduled) is in the scheduler's hands.
type pointRun struct {
	cfg *Config
	p   Point
	res Result

	runner  BatchRunner
	cache   PointCache // nil when the point has no hash
	started bool
	inBatch bool
	// batchN is the current policy batch's size; batchCounts accumulates
	// its chunks. record() sees exactly one merged Counts per policy
	// batch, so BatchRates are identical however the batch was chunked.
	batchN      int
	batchCounts Counts
	// prio is the controller priority as of the last batch boundary;
	// claimed marks the single-flight claim this point holds.
	prio    float64
	claimed bool
	// parked marks a point owned by another fabric node: handouts skip
	// it until the resolver unparks it with the owner's committed
	// result in the cache (or for local takeover compute).
	parked bool
	// aborted marks a point retired by cancellation or a campaign
	// failure: complete() skips its result and OnResult delivery.
	aborted bool
	// ckptShots is the shot count covered by the point's latest durable
	// checkpoint, so an abort only writes a checkpoint when there is
	// progress beyond it.
	ckptShots int
	// span is the point's open trace span (zero when the campaign is
	// unsampled); endSpan closes it exactly once on whichever of
	// finalize/abort/fail retires the point.
	span trace.ActiveSpan
}

// endSpan closes the point's trace span, recording total shots and
// the terminal condition. Safe (and free) when the campaign is
// unsampled or the span already closed.
func (pr *pointRun) endSpan(detail string, err error) {
	if !pr.span.Sampled() {
		return
	}
	pr.cfg.Trace.Recorder().ClearPointSpan(pr.p.Key)
	pr.span.SetShots(pr.res.Shots)
	if detail != "" {
		pr.span.SetDetail(detail)
	}
	pr.span.SetError(err)
	pr.span.End()
	pr.span = trace.ActiveSpan{}
}

// begin resolves the cache path and prepares the runner. It returns
// true when the point was served entirely from a committed cache entry
// and has no batches to run.
func (pr *pointRun) begin() bool {
	pr.started = true
	pr.cache = pr.cfg.Cache
	if pr.p.Hash == "" {
		pr.cache = nil
	}
	pr.res = Result{Key: pr.p.Key}
	pr.span = pr.cfg.Trace.Start(trace.SpanPoint, pr.p.Key)
	pr.span.SetHash(pr.p.Hash)
	if pr.span.Sampled() {
		pr.cfg.Trace.Recorder().SetPointSpan(pr.p.Key, pr.span.Context())
	}
	tel := pr.cfg.Telemetry
	if pr.cache != nil {
		if cp, ok := pr.cache.Lookup(pr.p.Hash); ok {
			pr.res.loadCached(cp)
			pr.res.Cached = true
			if tel != nil {
				tel.Record(telemetry.Signal{
					TimeNS:   time.Now().UnixNano(),
					Key:      pr.p.Key,
					Shots:    pr.res.Shots,
					Errors:   pr.res.Errors,
					CacheHit: true,
				})
			}
			return true
		}
		if pr.cfg.Resume {
			if cp, ok := pr.cache.LookupPartial(pr.p.Hash); ok {
				pr.res.loadCached(cp)
				pr.ckptShots = pr.res.Shots
			}
		}
	}
	if tel != nil && pr.cfg.Cache != nil {
		tel.CacheMiss()
	}
	t0 := time.Now()
	pr.runner = pr.p.Prepare()
	if tel != nil {
		tel.Prepared(time.Since(t0))
	}
	return false
}

// startBatch evaluates the stop rule at a policy-batch boundary — the
// same check, in the same order, as the top of the legacy runFixed and
// runAdaptive loops — and opens the next batch. It returns false when
// the point is done (converged, budget spent, or cap reached).
func (pr *pointRun) startBatch() bool {
	cfg := pr.cfg
	if cfg.CI <= 0 {
		if pr.res.Shots >= cfg.Shots {
			pr.res.Converged = true // fixed mode has no target to miss
			return false
		}
		batch := (cfg.Shots + fixedBatches - 1) / fixedBatches
		if batch < 1 {
			batch = 1
		}
		batch = cfg.alignUp(batch)
		if n := cfg.Shots - pr.res.Shots; n < batch {
			batch = n
		}
		pr.batchN = batch
	} else {
		if pr.res.Shots > 0 && stats.WilsonHalfWidth(pr.res.Errors, pr.res.Shots) <= cfg.CI {
			pr.res.Converged = true
			return false
		}
		n := nextBatch(*cfg, pr.res.Counts)
		if n == 0 {
			pr.res.Converged = false // cap reached before the target
			return false
		}
		pr.batchN = n
	}
	pr.inBatch = true
	pr.batchCounts = Counts{}
	return true
}

// runChunk executes up to chunk shots of the current policy batch (the
// whole remainder when chunk <= 0) and feeds the telemetry ring and the
// controller estimators. The chunk boundary is invisible to the policy:
// stop rules, batch rates and checkpoints only ever see the merged
// batch counts, and the (start, n) ranges of a batch's chunks tile the
// exact range the legacy single call covered.
func (pr *pointRun) runChunk(chunk int, ctrl *control.Controller, ws *workerState) {
	// The chaos harness's worker fault: a panic here exercises the
	// scheduler's recover boundary exactly where an engine bug would.
	if err := faultinject.Eval(faultinject.WorkerPanic); err != nil {
		panic(err)
	}
	n := pr.batchN - pr.batchCounts.Shots
	if chunk > 0 && chunk < n {
		n = chunk
	}
	start := pr.res.Shots + pr.batchCounts.Shots
	tel := pr.cfg.Telemetry
	observing := tel != nil || ctrl != nil
	var t0 time.Time
	var alloc0 int64
	var hwBefore float64
	if observing {
		if tel != nil {
			m := pr.res.Counts
			m.merge(pr.batchCounts)
			hwBefore = stats.WilsonHalfWidth(m.Errors, m.Shots)
		}
		alloc0 = ws.allocBytes()
		t0 = time.Now()
	}
	cs := pr.span.Context().Start(trace.SpanChunkRun, pr.p.Key)
	c := pr.runner(start, n)
	pr.batchCounts.merge(c)
	if cs.Sampled() {
		cs.SetShots(c.Shots)
		cs.End()
	}
	if !observing {
		return
	}
	wall := time.Since(t0).Nanoseconds()
	alloc := ws.allocBytes() - alloc0
	if ctrl != nil {
		ctrl.ObserveChunk(n, c.Shots, wall, alloc)
	}
	if tel == nil {
		return
	}
	m := pr.res.Counts
	m.merge(pr.batchCounts)
	var sps float64
	if wall > 0 {
		sps = float64(c.Shots) / (float64(wall) / 1e9)
	}
	tel.Record(telemetry.Signal{
		TimeNS:      time.Now().UnixNano(),
		Key:         pr.p.Key,
		Batch:       len(pr.res.BatchRates),
		Start:       start,
		Shots:       c.Shots,
		Errors:      c.Errors,
		WallNS:      wall,
		ShotsPerSec: sps,
		HWBefore:    hwBefore,
		HWAfter:     stats.WilsonHalfWidth(m.Errors, m.Shots),
		TailWidth:   pr.tailWidth(ws),
		AllocBytes:  alloc,
	})
}

// finishBatch folds the completed policy batch into the result and
// checkpoints exactly when the legacy loop did: never on a batch the
// commit that follows immediately would supersede.
func (pr *pointRun) finishBatch() {
	pr.res.record(pr.batchCounts)
	pr.inBatch = false
	cfg := pr.cfg
	var last bool
	if cfg.CI <= 0 {
		last = pr.res.Shots >= cfg.Shots
	} else {
		last = stats.WilsonHalfWidth(pr.res.Errors, pr.res.Shots) <= cfg.CI ||
			pr.res.Shots >= cfg.MaxShots
	}
	if !last && pr.cache != nil {
		pr.cache.Checkpoint(pr.p.Hash, pr.res.cachedPoint())
		pr.ckptShots = pr.res.Shots
	}
	if tel := cfg.Telemetry; tel != nil {
		tel.BatchDone()
	}
}

// abort retires the point without finishing it: progress beyond the
// last durable checkpoint is flushed so a resubmitted campaign resumes
// from this exact batch boundary, and a cancel signal marks the event
// for started points. Called only at policy-batch boundaries, so the
// flushed checkpoint is always whole-batch state the resumed run
// replays byte-identically.
func (pr *pointRun) abort() {
	pr.aborted = true
	if !pr.started || pr.res.Cached {
		pr.endSpan("aborted", nil)
		return
	}
	pr.endSpan("cancelled at batch boundary", nil)
	if pr.cache != nil && pr.res.Shots > pr.ckptShots {
		pr.cache.Checkpoint(pr.p.Hash, pr.res.cachedPoint())
		pr.ckptShots = pr.res.Shots
	}
	if tel := pr.cfg.Telemetry; tel != nil {
		tel.Record(telemetry.Signal{
			TimeNS: time.Now().UnixNano(),
			Key:    pr.p.Key,
			Shots:  pr.res.Shots,
			Event:  telemetry.EventCancel,
			Detail: "campaign cancelled at batch boundary",
		})
	}
}

// finalize commits live points to the cache and derives the interval
// and tail statistics — the same computation, in the same order, as the
// legacy runPoint tail.
func (pr *pointRun) finalize(ws *workerState) {
	if pr.cache != nil && !pr.res.Cached {
		cs := pr.span.Context().Start(trace.SpanStoreCommit, pr.p.Key)
		cs.SetHash(pr.p.Hash)
		pr.cache.Commit(pr.p.Hash, pr.res.cachedPoint())
		cs.End()
	}
	detail := ""
	if pr.res.Cached {
		detail = "cache-hit"
	}
	pr.endSpan(detail, nil)
	pr.res = pr.res.finalize(&ws.scratch)
}

// tailWidth is the CI half-width of the point's tail statistic — the
// shot-allocation signal for tail-sensitive points; 0 otherwise.
func (pr *pointRun) tailWidth(ws *workerState) float64 {
	if !pr.p.TailSensitive {
		return 0
	}
	s := append(ws.scratch[:0], pr.res.BatchRates...)
	sort.Float64s(s)
	ws.scratch = s
	return stats.CVaRHalfWidth(s, 0.90)
}

// priority scores the point for the controller's handout ordering:
// tail-sensitive points by tail-CI width, adaptive points by Wilson
// half-width, fixed points by remaining work. Unstarted points take the
// widest value of their band, so every point gets a first batch before
// refinement begins.
func (pr *pointRun) priority(ws *workerState) float64 {
	cfg := pr.cfg
	sig := control.PointSignals{TailSensitive: pr.p.TailSensitive}
	adaptive := cfg.CI > 0
	if pr.res.Shots == 0 {
		if adaptive {
			sig.HalfWidth = 1
		}
		sig.RemainingFrac = 1
	} else {
		if adaptive {
			sig.HalfWidth = stats.WilsonHalfWidth(pr.res.Errors, pr.res.Shots)
		} else if cfg.Shots > 0 {
			sig.RemainingFrac = float64(cfg.Shots-pr.res.Shots) / float64(cfg.Shots)
		}
	}
	if sig.TailSensitive {
		sig.TailWidth = pr.tailWidth(ws)
	}
	return control.Priority(sig)
}
