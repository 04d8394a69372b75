// Package sweep is the campaign orchestration layer of radqec: it fans
// a set of sweep points (one measured configuration each — a code on a
// topology under one fault parameterisation) across workers, reuses the
// prepared simulator and decode graph of each point across shot batches,
// and allocates shots either as a fixed count per point or adaptively in
// batches until the Wilson 95% half-width of the point's logical error
// rate drops to a target (subject to a hard per-point cap).
//
// Determinism contract: a point's BatchRunner must draw shot i of its
// campaign from RNG streams fixed by the seed and i alone, so any
// partition of the shots into batches merges to one run. The engines'
// RunFrom honours it: inject.Campaign.RunFrom maps shot i to
// split(seed, i), frame.BatchCampaign.RunFrom to lane i%64 of word i/64
// on that word's own stream. Batch boundaries are pure functions of the
// observed counts, and points never share random state, so a sweep's
// per-point shot streams and rates are identical for any Workers
// setting.
package sweep

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"radqec/internal/control"
	"radqec/internal/stats"
	"radqec/internal/telemetry"
	"radqec/internal/trace"
)

// Counts accumulates the shot outcomes of one point.
type Counts struct {
	Shots, Errors int
	// DecodeNS is the time one engine call spent in the decoder, summed
	// over its decode calls — how a BatchRunner reports it to the sweep,
	// which puts it on the turn's telemetry record. The call computes on
	// the worker's goroutine, so DecodeNS is a part of its wall time.
	// merge never folds it, so it reaches no Result, CachedPoint, point
	// record or fingerprint.
	DecodeNS int64
}

func (c *Counts) merge(o Counts) {
	c.Shots += o.Shots
	c.Errors += o.Errors
}

// Rate returns the observed error rate, 0 before any shots.
func (c Counts) Rate() float64 {
	if c.Shots == 0 {
		return 0
	}
	return float64(c.Errors) / float64(c.Shots)
}

// BatchRunner executes the shot range [start, start+n) of one point's
// campaign and returns its counts. Shot start+i must consume the RNG
// stream split(seed, start+i) of the point's campaign seed, so that the
// union of batches equals one contiguous fixed-shot run. It runs on the
// calling worker's goroutine: the scheduler's workers are the pool.
type BatchRunner func(start, n int) Counts

// Point is one measured configuration of a sweep.
type Point struct {
	// Key identifies the point in results and streaming output.
	Key string
	// Hash, when non-empty, is the content address of the point's full
	// spec (circuit, fault, seed, engine, decoder, shot policy). Points
	// with a hash participate in Config.Cache: a committed result is
	// returned without calling Prepare, and batch-boundary checkpoints
	// make an interrupted point resumable.
	Hash string
	// Prepare builds the point's batch runner. It is called exactly
	// once, lazily, on the worker that owns the point, so expensive
	// per-point state (executors, decode graphs, pooled simulators) is
	// built once and reused across every batch of the point.
	Prepare func() BatchRunner
}

// Policy is the result-determining half of a sweep's configuration:
// shot budgets, the stop rule, and batch alignment. Everything a Result
// depends on lives here — two runs with equal Policy over equal points
// produce identical Results whatever the Mechanism.
type Policy struct {
	// Shots is the fixed per-point shot count when CI is zero
	// (default 2000, the paper harness default).
	Shots int
	// CI, when positive, switches every point to adaptive allocation:
	// batches are added until the Wilson 95% half-width of the point's
	// rate is at most CI, or MaxShots is reached.
	CI float64
	// MaxShots caps adaptive allocation per point. 0 picks
	// WorstCaseShots(CI), the fixed count that guarantees the target at
	// any rate — so adaptive mode can only spend fewer shots than the
	// equivalent fixed campaign.
	MaxShots int
	// Align, when above 1, rounds every batch size up to a multiple of
	// it (capped by the remaining budget, so totals are unchanged).
	// Bit-parallel campaigns set it to the engine's tile (512 shots,
	// frame.TileShots) so batches fill whole tiles; by the BatchRunner
	// contract alignment never changes the merged counts, only how the
	// work is chunked.
	Align int
}

// Mechanism is the execution half of the configuration: parallelism,
// caching, delivery, and the telemetry and tracing hooks. Mechanism
// settings steer wall-clock time and completion order — never the
// Results.
type Mechanism struct {
	// Workers caps how many points run concurrently (0 = GOMAXPROCS).
	Workers int
	// OnResult, when set, receives each point's result as it completes.
	// Calls are serialised; completion order depends on scheduling even
	// though the results themselves do not.
	OnResult func(Result)
	// Cache, when set, persists point progress for the points that carry
	// a content hash: committed results short-circuit the point without
	// calling Prepare, and every completed batch is checkpointed so a
	// killed sweep picks its interrupted points back up at their last
	// batch boundary (by the BatchRunner's (start, n) contract that is
	// byte-identical to restarting from shot zero). Results are unchanged
	// by the cache — a hit replays exactly what an uninterrupted run
	// produced.
	Cache PointCache
	// Scheduler, when set, runs the sweep's points on this shared worker
	// pool (fair across concurrent campaigns) instead of a private one.
	Scheduler *Scheduler
	// Control is ignored: the scheduler has one policy (see Scheduler).
	// The field stays only because the frozen bench/ harness sets it.
	Control *control.Policy
	// Telemetry, when set, receives one Signal per scheduler turn (and
	// per lifecycle event) and folds its counters from them. Strictly
	// observational.
	Telemetry *telemetry.Campaign
	// Trace, when sampled, is the campaign's root span context: every
	// point records point/chunk-run/decode/store-commit spans under it. The
	// zero value (sampling off) keeps the hot path at a single pointer
	// test — tracing, like Telemetry, is pure Mechanism and never
	// reaches a Result.
	Trace trace.SpanContext
}

// Config pairs a sweep's policy with its mechanism. The split is the
// determinism boundary: Policy decides what is computed, Mechanism only
// how the computation is scheduled.
type Config struct {
	Policy
	Mechanism
}

// PointCache persists per-point progress keyed by the point's content
// hash. Implementations must be safe for concurrent use by the sweep
// workers; the disk-backed implementation lives in package store.
type PointCache interface {
	// Lookup returns the committed final result for a hash.
	Lookup(hash string) (CachedPoint, bool)
	// LookupPartial returns the latest batch-boundary checkpoint for a
	// hash that has no committed result yet.
	LookupPartial(hash string) (CachedPoint, bool)
	// Checkpoint records progress at a batch boundary.
	Checkpoint(hash string, p CachedPoint)
	// Commit records the final result, superseding any checkpoint.
	Commit(hash string, p CachedPoint)
}

// CachedPoint is the persisted view of a point's progress: the raw
// counts and the batch count — everything needed to resume the shot
// loop or to rematerialise a Result (the Wilson interval is recomputed
// on load, so a replayed result is identical to the one originally
// computed).
type CachedPoint struct {
	// Key is the point's human-readable key, carried for cache
	// listings; it never feeds back into a replayed Result (the hash,
	// which embeds the key, already guarantees they match).
	Key     string `json:"key,omitempty"`
	Shots   int    `json:"shots"`
	Errors  int    `json:"errors"`
	Batches int    `json:"batches,omitempty"`
	// BatchRates is what a record written before Batches existed
	// carries in its place: the per-batch rate stream. Only its length
	// is read (BatchCount); the sweep never writes it.
	BatchRates []float64 `json:"batch_rates,omitempty"`
	Converged  bool      `json:"converged,omitempty"`
}

// BatchCount is the number of batches the point ran: Batches, or for a
// legacy record the length of its rate stream.
func (c *CachedPoint) BatchCount() int {
	if c.Batches == 0 {
		return len(c.BatchRates)
	}
	return c.Batches
}

func (c Config) withDefaults() Config {
	if c.Shots <= 0 {
		c.Shots = 2000
	}
	if c.CI > 0 && c.MaxShots <= 0 {
		c.MaxShots = WorstCaseShots(c.CI)
	}
	if c.Align <= 0 {
		c.Align = 1
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// minBatch is the adaptive first-batch and minimum-batch size: 256,
// or an eighth of the cap when that is smaller (but at least 16). A
// first batch near the cap would spend the whole budget before the
// stopping rule ever fires; a fraction of the cap lets easy points stop
// early even at loose targets.
func (c Policy) minBatch() int {
	if c.CI > 0 && c.MaxShots/8 < 256 {
		return max(c.MaxShots/8, 16)
	}
	return 256
}

// alignUp rounds n up to the alignment grid.
func (c Policy) alignUp(n int) int {
	if rem := n % c.Align; rem != 0 {
		n += c.Align - rem
	}
	return n
}

// Result is the estimate a sweep produced for one point.
type Result struct {
	Key string
	Counts
	// CILo and CIHi bound the rate with the Wilson 95% interval.
	CILo, CIHi float64
	// Batches is how many policy batches the point ran in.
	Batches int
	// Converged reports whether the Wilson half-width target was met
	// (always true in fixed mode, which has no target).
	Converged bool
	// Cached reports that the result was served from Config.Cache
	// without running the point's campaign.
	Cached bool
}

// HalfWidth returns half the Wilson interval width.
func (r Result) HalfWidth() float64 { return (r.CIHi - r.CILo) / 2 }

// WorstCaseShots returns the fixed per-point shot count that guarantees
// a Wilson 95% half-width of at most ci at any error rate. The width is
// maximal at rate 1/2, where the Wilson interval is never wider than the
// Wald interval, so the Wald worst case z²/(4·ci²) suffices. A count
// past float64's exact integers saturates at math.MaxInt.
func WorstCaseShots(ci float64) int {
	if ci <= 0 {
		return 0
	}
	wald := stats.Z95 * stats.Z95 / (4 * ci * ci)
	if wald >= 1<<53 {
		return math.MaxInt
	}
	n := int(wald)
	if n < 1 {
		n = 1
	}
	for stats.WilsonHalfWidth(n/2, n) > ci {
		n++
	}
	return n
}

// PointError is the terminal error of a campaign one of whose points
// panicked: the recover boundary in the scheduler worker converts the
// panic (the internal packages panic liberally on programmer error)
// into this record — failing the one campaign while sibling campaigns
// and the worker pool keep running. Stack is the panicking worker's
// stack, captured at the recover site.
type PointError struct {
	// Key is the sweep point whose turn panicked.
	Key string
	// Hash is the point's content hash, empty for unhashed points —
	// carried so crash reports correlate with store state.
	Hash string
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PointError) Error() string {
	return fmt.Sprintf("sweep: point %q panicked: %v", e.Key, e.Value)
}

// Run executes every point and returns results in input order. The
// results are independent of cfg.Workers; only wall-clock time and
// OnResult delivery order vary with it. With cfg.Scheduler set the
// points run on that shared pool; otherwise a private pool is spun up
// for the call, the classic single-campaign behaviour.
//
// ctx bounds the campaign: cancellation is observed at policy-batch
// boundaries, where every in-flight point flushes its progress to
// cfg.Cache as a checkpoint before aborting, so a resubmitted campaign
// resumes byte-identically via the (start, n) BatchRunner contract.
// On cancellation Run returns the results completed so far plus
// context.Cause(ctx); a panicking point returns a *PointError the same
// way. A nil ctx means context.Background().
func Run(ctx context.Context, cfg Config, points []Point) ([]Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Scheduler != nil {
		return cfg.Scheduler.Run(ctx, cfg, points)
	}
	workers := cfg.Workers
	if workers > len(points) {
		workers = len(points)
	}
	if workers == 0 {
		return make([]Result, len(points)), nil
	}
	s := NewScheduler(workers)
	defer s.Close()
	return s.Run(ctx, cfg, points)
}

// loadCached restores the persisted progress of a point.
func (r *Result) loadCached(cp CachedPoint) {
	r.Shots, r.Errors, r.Batches = cp.Shots, cp.Errors, cp.BatchCount()
	r.Converged = cp.Converged
}

// cachedPoint is the persisted view of the result's current progress.
func (r *Result) cachedPoint() CachedPoint {
	return CachedPoint{
		Key:       r.Key,
		Shots:     r.Shots,
		Errors:    r.Errors,
		Batches:   r.Batches,
		Converged: r.Converged,
	}
}

// finalize derives the interval from the counts — the same computation
// whether the point ran live, resumed, or replayed from the cache.
func (r Result) finalize() Result {
	r.CILo, r.CIHi = stats.WilsonCI(r.Errors, r.Shots)
	return r
}

// fixedBatches is how many batches a fixed-shot point is split into. A
// batch boundary is where a point checkpoints and where cancellation is
// observed, and each batch is one scheduler turn, so the split sets how
// finely an interrupted point resumes and a cancel lands, and lets the
// pool interleave points and campaigns. Fixed points execute exactly
// cfg.Shots shots across those batches (the pointRun state machine in
// point.go drives the batch loop); the merged counts equal a single
// contiguous run by the BatchRunner contract. Adaptive points add
// batches until the Wilson half-width target is met or the cap is
// exhausted, with the stopping rule evaluated at each batch boundary so
// a resumed point whose checkpoint already satisfies the target stops
// without running an extra batch the uninterrupted campaign never ran.
const fixedBatches = 8

// record folds one batch into the running counts and batch count.
func (r *Result) record(c Counts) {
	r.merge(c)
	r.Batches++
}

// nextBatch sizes the next adaptive batch: the estimated shots still
// needed for the target at the observed rate, floored at minBatch and
// ceilinged by the remaining cap. It returns 0 when the cap is spent.
func nextBatch(cfg Config, c Counts) int {
	remaining := cfg.MaxShots - c.Shots
	if remaining <= 0 {
		return 0
	}
	n := cfg.minBatch()
	if c.Shots > 0 {
		// Wald-style inversion n* ≈ z²·p(1-p)/ci²; startBatch re-checks
		// the exact Wilson width, so this only has to land close.
		p := c.Rate()
		need := int(stats.Z95*stats.Z95*p*(1-p)/(cfg.CI*cfg.CI)) - c.Shots
		if need > n {
			n = need
		}
	}
	n = cfg.alignUp(n)
	if n > remaining {
		n = remaining
	}
	return n
}

// Summary aggregates a sweep's shot budget against the fixed-shot
// campaign with the same precision guarantee.
type Summary struct {
	// Points is the number of measured points.
	Points int
	// TotalShots is the number of shots the sweep actually executed.
	TotalShots int
	// FixedShots is what the equivalent fixed campaign would have
	// executed: MaxShots per point in adaptive mode, Shots per point in
	// fixed mode (where the two are equal by construction). A sum past
	// math.MaxInt saturates there.
	FixedShots int
	// Converged counts points that met the half-width target.
	Converged int
}

// Summarize derives the shot-budget summary of a completed sweep.
func Summarize(cfg Config, results []Result) Summary {
	cfg = cfg.withDefaults()
	perPoint := cfg.Shots
	if cfg.CI > 0 {
		perPoint = cfg.MaxShots
	}
	s := Summary{Points: len(results), FixedShots: perPoint * len(results)}
	if len(results) > 0 && perPoint > math.MaxInt/len(results) {
		s.FixedShots = math.MaxInt
	}
	for _, r := range results {
		s.TotalShots += r.Shots
		if r.Converged {
			s.Converged++
		}
	}
	return s
}
