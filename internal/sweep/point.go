package sweep

import (
	"time"

	"radqec/internal/faultinject"
	"radqec/internal/stats"
	"radqec/internal/telemetry"
	"radqec/internal/trace"
)

// turn is what one handout of one point measured: the record every
// reader derives from, plus the two instants its leaf spans start at.
type turn struct {
	telemetry.Signal
	runStart, commitStart time.Time
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
	// aborted marks a point retired by cancellation or a campaign
	// failure: complete() skips its result and OnResult delivery.
	aborted bool
	// ckptShots is the shot count covered by the point's latest durable
	// checkpoint, so an abort only writes a checkpoint when there is
	// progress beyond it.
	ckptShots int
	// span is the point's open trace span (zero when the campaign is
	// unsampled); endSpan closes it exactly once on whichever of
	// runTurn/abort/fail retires the point.
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
func (pr *pointRun) begin(t *turn) bool {
	pr.started = true
	pr.cache = pr.cfg.Cache
	if pr.p.Hash == "" {
		pr.cache = nil
	}
	pr.res = Result{Key: pr.p.Key}
	pr.span = pr.cfg.Trace.Start(trace.SpanPoint, pr.p.Key)
	pr.span.SetHash(pr.p.Hash)
	if pr.cache != nil {
		if cp, ok := pr.cache.Lookup(pr.p.Hash); ok {
			pr.res.loadCached(cp)
			pr.res.Cached = true
			t.Shots, t.Errors, t.CacheHit = pr.res.Shots, pr.res.Errors, true
			return true
		}
		if cp, ok := pr.cache.LookupPartial(pr.p.Hash); ok {
			pr.res.loadCached(cp)
			pr.ckptShots = pr.res.Shots
		}
	}
	t0 := time.Now()
	pr.runner = pr.p.Prepare()
	t.PrepareNS = time.Since(t0).Nanoseconds()
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
func (pr *pointRun) runBatch(t *turn) {
	// The chaos harness's worker fault: a panic here exercises the
	// scheduler's recover boundary exactly where an engine bug would.
	if err := faultinject.Eval(faultinject.WorkerPanic); err != nil {
		panic(err)
	}
	t.Batch, t.Start = pr.res.Batches, pr.res.Shots
	t.runStart = time.Now()
	c := pr.runner(t.Start, pr.batchN)
	t.WallNS = time.Since(t.runStart).Nanoseconds()
	t.Shots, t.Errors, t.DecodeNS = c.Shots, c.Errors, c.DecodeNS
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

// finalize commits live points to the cache and derives the interval.
// The point's span stays open: runTurn closes it once the turn's leaf
// spans are drawn under it.
func (pr *pointRun) finalize(t *turn) {
	if pr.cache != nil && !pr.res.Cached {
		t.commitStart = time.Now()
		pr.cache.Commit(pr.p.Hash, pr.res.cachedPoint())
		t.CommitNS = time.Since(t.commitStart).Nanoseconds()
	}
	t.Done = true
	pr.res = pr.res.finalize()
}

// publish is the one writer of a turn. The decode and store-commit
// histograms observe its record on every campaign (the trace id is zero,
// so no exemplar, on an unsampled one); a sampled campaign's leaf spans
// are drawn from the same numbers under the point span; the telemetry
// ring stores it and Stats folds from it inside Record.
func (pr *pointRun) publish(t *turn) {
	t.Key = pr.p.Key
	if pr.cache != nil {
		t.Hash = pr.p.Hash
	}
	sc := pr.span.Context()
	decode, commit := time.Duration(t.DecodeNS), time.Duration(t.CommitNS)
	if decode > 0 {
		trace.DecodeHist.Observe(decode, sc.TraceID())
	}
	if commit > 0 {
		trace.CommitHist.Observe(commit, sc.TraceID())
	}
	if sc.Sampled() {
		if !t.runStart.IsZero() {
			sc.Draw(trace.SpanChunkRun, t.Key, "", t.Shots, t.runStart, time.Duration(t.WallNS))
			if decode > 0 {
				sc.Draw(trace.SpanDecode, t.Key, "", t.Shots, t.runStart, decode)
			}
		}
		if commit > 0 {
			sc.Draw(trace.SpanStoreCommit, t.Key, t.Hash, 0, t.commitStart, commit)
		}
	}
	if tel := pr.cfg.Telemetry; tel != nil {
		t.TimeNS = time.Now().UnixNano()
		tel.Record(t.Signal)
	}
}
