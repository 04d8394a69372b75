package sweep

import (
	"runtime/metrics"
	"sort"
	"time"

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
// The delta across a batch is a memory-pressure signal attributed to
// the batch but global to the process, as documented on the telemetry
// Signal.
func (ws *workerState) allocBytes() int64 {
	if ws.msample == nil {
		ws.msample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	}
	metrics.Read(ws.msample)
	return int64(ws.msample[0].Value.Uint64())
}

// pointRun is the resumable execution state of one point: a state
// machine the scheduler advances one policy batch at a time,
// interleaving points and campaigns between batches. Batch boundaries,
// stop-rule evaluations and checkpoint/commit decisions are pure
// functions of the policy and the observed counts; only when the next
// batch runs is in the scheduler's hands.
type pointRun struct {
	cfg *Config
	p   Point
	res Result

	runner  BatchRunner
	cache   PointCache // nil when the point has no hash
	started bool
	// batchN is the size of the policy batch startBatch opened.
	batchN int
	// claimed marks the single-flight claim this point holds.
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
		if cp, ok := pr.cache.LookupPartial(pr.p.Hash); ok {
			pr.res.loadCached(cp)
			pr.ckptShots = pr.res.Shots
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

// startBatch evaluates the stop rule at a policy-batch boundary and
// opens the next batch. It returns false when the point is done
// (converged, budget spent, or cap reached).
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
	return true
}

// runBatch executes the open policy batch as one engine call over the
// shot range [Shots, Shots+batchN) and folds it into the result.
func (pr *pointRun) runBatch(ws *workerState) {
	// The chaos harness's worker fault: a panic here exercises the
	// scheduler's recover boundary exactly where an engine bug would.
	if err := faultinject.Eval(faultinject.WorkerPanic); err != nil {
		panic(err)
	}
	start := pr.res.Shots
	tel := pr.cfg.Telemetry
	var t0 time.Time
	var alloc0 int64
	var hwBefore float64
	if tel != nil {
		hwBefore = stats.WilsonHalfWidth(pr.res.Errors, pr.res.Shots)
		alloc0 = ws.allocBytes()
		t0 = time.Now()
	}
	cs := pr.span.Context().Start(trace.SpanChunkRun, pr.p.Key)
	c := pr.runner(start, pr.batchN)
	if cs.Sampled() {
		cs.SetShots(c.Shots)
		cs.End()
		if c.DecodeNS > 0 {
			// One decode span per chunk under the point span, placed to
			// end with the chunk and last the accumulated decode time.
			ds := pr.span.Context().StartAt(trace.SpanDecode, pr.p.Key, time.Now().Add(-time.Duration(c.DecodeNS)))
			ds.SetShots(c.Shots)
			ds.End()
		}
	}
	if tel != nil {
		wall := time.Since(t0).Nanoseconds()
		alloc := ws.allocBytes() - alloc0
		m := pr.res.Counts
		m.merge(c)
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
			DecodeNS:    c.DecodeNS,
			ShotsPerSec: sps,
			HWBefore:    hwBefore,
			HWAfter:     stats.WilsonHalfWidth(m.Errors, m.Shots),
			TailWidth:   pr.tailWidth(ws),
			AllocBytes:  alloc,
		})
		tel.BatchDone()
	}
	pr.res.record(c)
}

// checkpoint makes the point's progress durable at a batch boundary,
// unless the latest checkpoint already covers it. The scheduler never
// checkpoints the batch a point stops on: the commit that follows
// immediately would supersede it.
func (pr *pointRun) checkpoint() {
	if pr.cache != nil && pr.res.Shots > pr.ckptShots {
		pr.cache.Checkpoint(pr.p.Hash, pr.res.cachedPoint())
		pr.ckptShots = pr.res.Shots
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
	pr.checkpoint()
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
// and tail statistics.
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

// tailWidth is the CI half-width of the point's tail statistic, reported
// on the telemetry signals of tail-sensitive points; 0 otherwise.
func (pr *pointRun) tailWidth(ws *workerState) float64 {
	if !pr.p.TailSensitive {
		return 0
	}
	s := append(ws.scratch[:0], pr.res.BatchRates...)
	sort.Float64s(s)
	ws.scratch = s
	return stats.CVaRHalfWidth(s, 0.90)
}
