package sweep

import (
	"context"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"radqec/internal/telemetry"
)

// Scheduler owns a fixed pool of point workers and multiplexes any
// number of concurrent sweeps over it. Each Run enqueues its points as
// one campaign, and N concurrent clients share the pool fairly instead
// of each spawning its own worker set and oversubscribing the CPU. A
// lone campaign still gets the whole pool, up to its Workers cap.
//
// There is one scheduling policy. A handout is one turn: one policy
// batch of one point, run as one engine call. A point whose stop rule
// is satisfied after that batch finalizes in the same turn; otherwise
// it goes to the back of its campaign's FIFO queue, so a pool's tail is
// one batch long, not one point long. Campaigns rotate
// least-recently-served. A pending point whose content hash is already
// computing on the pool is skipped until the holder commits, then
// replays the commit from the cache (single-flight; campaigns without a
// cache never skip). Workers is a hard per-campaign concurrency cap.
//
// Point results are pure functions of (Policy, Point) — the determinism
// contract of Run — so interleaving batches and campaigns changes only
// wall-clock time and completion order, never the results.
type Scheduler struct {
	mu   sync.Mutex
	cond *sync.Cond
	// queues holds the active campaigns in service order: a campaign
	// moves to the back each time it is handed a turn and a new campaign
	// enters at the front, so handouts alternate across campaigns
	// regardless of arrival order or campaign length.
	queues []*schedQueue
	// flights keys the points currently computing by content hash: a
	// pending point whose hash is already in flight is skipped until the
	// holder commits, then replays the committed result from the cache
	// instead of recomputing it.
	flights map[string]struct{}
	closed  bool
	wg      sync.WaitGroup
}

// schedQueue is one campaign's slice of the pool.
type schedQueue struct {
	cfg     Config
	points  []Point
	results []Result
	// ctx is the campaign's lifecycle: derived (WithCancelCause) from
	// the Run caller's context, cancelled by the caller, by a worker
	// panic (via fail), or with nil once the campaign retires. Workers
	// observe it at policy-batch boundaries only, so cancellation never
	// tears an engine chunk.
	ctx    context.Context
	cancel context.CancelCauseFunc
	// err is the campaign's first terminal failure (a *PointError from
	// a recovered panic), written under the scheduler mutex.
	err error
	// runs holds each point's execution state machine.
	runs []pointRun
	// queue is the pending-point set, FIFO: a point between batches
	// re-enters at the back. Points behind an in-flight hash stay in
	// the queue but are skipped by claimable.
	queue      []int
	running    int // points of this campaign currently executing
	unfinished int // points not yet completed
	done       chan struct{}
	// resMu serialises this campaign's OnResult calls, matching the
	// single-campaign Run contract; campaigns do not block each other.
	resMu sync.Mutex
}

// NewScheduler starts a pool of the given size (0 picks GOMAXPROCS).
// Close releases the workers.
func NewScheduler(workers int) *Scheduler {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &Scheduler{flights: make(map[string]struct{})}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go s.worker()
	}
	return s
}

// Close stops the workers after their in-flight points finish. Runs
// still queued complete first: Close only blocks new point handouts
// once every active campaign has drained.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
	s.wg.Wait()
}

// Run executes one campaign on the shared pool and returns results in
// input order, exactly like the package-level Run. Concurrent Runs are
// interleaved fairly. cfg.Workers caps how many of this campaign's
// points execute at once within the pool.
//
// ctx carries the campaign's cancellation, observed at policy-batch
// boundaries (see the package-level Run). A cancelled or panicked
// campaign drains promptly — its pending points are handed out only to
// be aborted — while sibling campaigns and the pool are untouched.
func (s *Scheduler) Run(ctx context.Context, cfg Config, points []Point) ([]Result, error) {
	cfg = cfg.withDefaults()
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]Result, len(points))
	if len(points) == 0 {
		if ctx.Err() != nil {
			return results, context.Cause(ctx)
		}
		return results, nil
	}
	qctx, qcancel := context.WithCancelCause(ctx)
	q := &schedQueue{
		cfg:        cfg,
		points:     points,
		results:    results,
		ctx:        qctx,
		cancel:     qcancel,
		unfinished: len(points),
		done:       make(chan struct{}),
	}
	q.runs = make([]pointRun, len(points))
	q.queue = make([]int, len(points))
	for i := range q.runs {
		q.runs[i] = pointRun{cfg: &q.cfg, p: points[i]}
		q.queue[i] = i
	}
	if tel := cfg.Telemetry; tel != nil {
		tel.SetQueueDepth(len(points))
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		panic("sweep: Run on closed Scheduler")
	}
	s.queues = append([]*schedQueue{q}, s.queues...)
	s.mu.Unlock()
	s.cond.Broadcast()
	// Workers blocked in take() poll nothing: a cancellation arriving
	// while the pool is idle must wake them so the abort drain can
	// start immediately.
	go func() {
		select {
		case <-qctx.Done():
			s.cond.Broadcast()
		case <-q.done:
		}
	}()
	<-q.done
	s.mu.Lock()
	err := q.err
	s.mu.Unlock()
	if err == nil && qctx.Err() != nil {
		err = context.Cause(qctx)
	}
	qcancel(nil) // release the context chain; a set cause is sticky
	return results, err
}

// worker advances points handed out by take until the pool closes.
// Each turn runs inside the recover boundary of safeTurn: a panic in a
// point's Prepare or BatchRunner fails that point's campaign, never
// the worker or the pool.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		q, i := s.take()
		if q == nil {
			return
		}
		done, err := q.safeTurn(i)
		if err != nil {
			s.fail(q, i, err)
			continue
		}
		if done {
			s.complete(q, i)
		} else {
			s.requeue(q, i)
		}
	}
}

// safeTurn is the per-handout panic-isolation boundary: it converts a
// panic anywhere in the point's turn — Prepare, the engine chunk, the
// decode path — into a *PointError carrying the recovered value and
// the worker's stack, leaving the worker goroutine intact.
func (q *schedQueue) safeTurn(i int) (done bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PointError{Key: q.points[i].Key, Hash: q.points[i].Hash, Value: r, Stack: debug.Stack()}
		}
	}()
	return q.runTurn(i), nil
}

// aborted reports whether the campaign's lifecycle context has been
// cancelled (by the caller, or by fail after a sibling point panicked).
func (q *schedQueue) aborted() bool { return q.ctx.Err() != nil }

// runTurn advances one point by one policy batch, run as one engine
// call, then yields the worker. It returns true when the point is
// finished: served from the cache, stopped by its stop rule (evaluated
// right after the batch, so a point's last batch and its finalize share
// a turn), or aborted. A started point waiting in the queue always has
// its next batch open.
//
// Cancellation is observed here and only here — at the top of a turn
// and at the policy-batch boundary — so an abort never tears a batch:
// whatever the abort flushes is a whole-batch checkpoint the resumed
// campaign replays byte-identically.
//
// The turn is also the unit of observation: whatever it did — set-up,
// the engine call, the commit, a cache replay — lands on one record,
// published once.
func (q *schedQueue) runTurn(i int) bool {
	pr := &q.runs[i]
	if q.aborted() {
		pr.abort()
		return true
	}
	var t turn
	// A first turn may have nothing to run: a committed cache entry, or
	// a resumed checkpoint that already satisfies the stop rule.
	var cancelled, more bool
	if pr.started || (!pr.begin(&t) && pr.startBatch()) {
		pr.runBatch(&t)
		if cancelled = q.aborted(); !cancelled {
			more = pr.startBatch()
		}
	}
	switch {
	case cancelled:
	case more:
		pr.checkpoint()
	default:
		pr.finalize(&t)
	}
	pr.publish(&t)
	switch {
	case cancelled:
		pr.abort()
	case t.CacheHit:
		pr.endSpan("cache-hit", nil)
	case t.Done:
		pr.endSpan("", nil)
	}
	return cancelled || t.Done
}

// fail records a point's terminal error as its campaign's, cancels the
// campaign's remaining work (the drain aborts it point by point,
// flushing checkpoints), and retires the failed point. Sibling
// campaigns and the pool itself are untouched — the worker that
// recovered the panic goes straight back to serving handouts.
func (s *Scheduler) fail(q *schedQueue, i int, err error) {
	if tel := q.cfg.Telemetry; tel != nil {
		tel.Record(telemetry.Signal{
			TimeNS: time.Now().UnixNano(),
			Key:    q.points[i].Key,
			Event:  telemetry.EventPanic,
			Detail: err.Error(),
		})
	}
	s.mu.Lock()
	if q.err == nil {
		q.err = err
	}
	s.mu.Unlock()
	q.cancel(err)
	q.runs[i].aborted = true
	q.runs[i].endSpan("panic", err)
	s.complete(q, i)
}

// take claims the next runnable point, blocking while every campaign is
// drained, behind an in-flight hash, or at its worker cap. It
// returns nil once the pool is closed and no campaign remains.
func (s *Scheduler) take() (*schedQueue, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if q, i := s.pick(); q != nil {
			return q, i
		}
		if s.closed && len(s.queues) == 0 {
			return nil, 0
		}
		s.cond.Wait()
	}
}

// pick hands the first eligible campaign in service order (claimable
// work, below its Workers cap) its first claimable point and rotates
// the campaign to the back: least-recently-served round-robin.
func (s *Scheduler) pick() (*schedQueue, int) {
	for idx, q := range s.queues {
		// A cancelled campaign's handouts are aborts — near-free turns
		// that flush checkpoints — so its worker cap no longer applies:
		// drain it as fast as workers free up.
		if q.running >= q.cfg.Workers && !q.aborted() {
			continue
		}
		j, ok := q.claimable(s.flights)
		if !ok {
			continue
		}
		i := q.queue[j]
		q.queue = append(q.queue[:j], q.queue[j+1:]...)
		q.running++
		// An aborting point does no engine work, so claiming its hash
		// would only hold siblings behind a computation that will never
		// commit.
		if h := q.flightKey(i); h != "" && !q.runs[i].claimed && !q.aborted() {
			s.flights[h] = struct{}{}
			q.runs[i].claimed = true
		}
		copy(s.queues[idx:], s.queues[idx+1:])
		s.queues[len(s.queues)-1] = q
		return q, i
	}
	return nil, 0
}

// claimable returns the queue position of the campaign's first pending
// point that is not behind another point computing the same hash.
func (q *schedQueue) claimable(flights map[string]struct{}) (int, bool) {
	// Draining a cancelled campaign: any pending point will do — its
	// handout aborts immediately, so single-flight no longer applies.
	draining := q.aborted()
	for j, i := range q.queue {
		if draining {
			return j, true
		}
		if h := q.flightKey(i); h != "" && !q.runs[i].claimed {
			if _, busy := flights[h]; busy {
				continue
			}
		}
		return j, true
	}
	return 0, false
}

// flightKey is the single-flight key of a point: its content hash, when
// the campaign has a cache for a follower to replay the leader's commit
// from. Without a cache deduplication would have no way to hand the
// follower a result, so such points are never skipped.
func (q *schedQueue) flightKey(i int) string {
	if q.cfg.Cache == nil {
		return ""
	}
	return q.points[i].Hash
}

// requeue returns a between-batches point to the back of its campaign's
// queue.
func (s *Scheduler) requeue(q *schedQueue, i int) {
	s.mu.Lock()
	q.running--
	q.queue = append(q.queue, i)
	depth := len(q.queue)
	s.mu.Unlock()
	s.cond.Broadcast()
	if tel := q.cfg.Telemetry; tel != nil {
		tel.SetQueueDepth(depth)
	}
}

// complete folds one finished point back into its campaign, releases
// its single-flight claim, delivers OnResult, and retires the campaign
// when its last point lands. Aborted points retire without a result or
// an OnResult call — their campaign is erroring out, and whatever
// progress they held is already checkpointed.
func (s *Scheduler) complete(q *schedQueue, i int) {
	// The point has run its last chunk: drop its engine campaign
	// (simulator, reference frame, tile states) now rather than when the
	// whole campaign retires, so the heap a campaign holds does not grow
	// with the points it has finished.
	q.runs[i].runner = nil
	aborted := q.runs[i].aborted
	if !aborted {
		q.results[i] = q.runs[i].res
		if q.cfg.OnResult != nil {
			q.resMu.Lock()
			q.cfg.OnResult(q.results[i])
			q.resMu.Unlock()
		}
	}
	s.mu.Lock()
	q.running--
	q.unfinished--
	if q.runs[i].claimed {
		delete(s.flights, q.flightKey(i))
	}
	finished := q.unfinished == 0
	if finished {
		for j, o := range s.queues {
			if o == q {
				s.queues = append(s.queues[:j], s.queues[j+1:]...)
				break
			}
		}
	}
	depth := len(q.queue)
	s.mu.Unlock()
	// A worker slot, a point behind this hash, or the closed pool may
	// now drain.
	s.cond.Broadcast()
	if tel := q.cfg.Telemetry; tel != nil {
		tel.SetQueueDepth(depth)
	}
	if finished {
		close(q.done)
	}
}
