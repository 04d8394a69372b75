// Package telemetry is the runtime-signals layer of the campaign
// engine. The sweep scheduler publishes one Signal per turn — one policy
// batch of one point as one engine call, with the set-up before it and
// the commit after it when the turn had them — onto a lock-free
// per-campaign ring, and every count of a campaign's work folds from
// those records inside Record: the campaign's Stats and, for a daemon
// campaign, its Registry's process-wide Counts. Shots and errors are
// engine work only — the turns that ran an engine call, a cancelled
// point's included — and never a cache hit's replayed totals. The HTTP
// daemon's /metrics and signals stream and the CLI's -stats report all
// read these folds; nothing else counts.
//
// Telemetry is strictly observational: nothing in this package feeds
// back into shot streams, batch boundaries or scheduling, so recording
// signals can never perturb results.
package telemetry

import (
	"cmp"
	"slices"
	"strings"
	"sync"
	"time"

	"radqec/internal/trace"
)

// RingSize is the per-campaign signal ring capacity: hours of turns for
// a converged campaign, seconds for a hot one. The stream endpoint
// follows live, so the ring only has to bridge poll gaps.
const RingSize = 1024

// Signal is the record of one scheduler turn of one sweep point, or of
// one lifecycle event (Event set). It is written once, by the sweep, and
// is the only input of the signals ring, Stats, the decode and
// store-commit histograms and a sampled campaign's leaf spans.
type Signal struct {
	// Seq is the campaign-wide sequence number, dense from 0.
	Seq uint64 `json:"seq"`
	// TimeNS is the wall-clock publication time in Unix nanoseconds.
	TimeNS int64 `json:"time_ns"`
	// Key is the sweep point the turn belongs to; Hash its content
	// address, empty when the campaign has no cache.
	Key  string `json:"key"`
	Hash string `json:"hash,omitempty"`
	// Batch is the policy-batch index within the point (the number of
	// completed batches before this turn's batch).
	Batch int `json:"batch"`
	// Start is the first shot index of the turn's batch; Shots and
	// Errors are the batch's counts (the replayed totals on a cache hit,
	// which no engine ran and no fold counts as shots).
	Start  int `json:"start"`
	Shots  int `json:"shots"`
	Errors int `json:"errors"`
	// PrepareNS is the time a point's first turn spent building its
	// runner (decoder resolution, simulator set-up). WallNS, the engine
	// call, starts after it, so set-up and run are disjoint and sum to
	// the engine time the point cost.
	PrepareNS int64 `json:"prepare_ns,omitempty"`
	WallNS    int64 `json:"wall_ns"`
	// DecodeNS is the part of the engine call spent in the decoder,
	// summed over its decode calls. The call runs on one goroutine, so
	// DecodeNS ≤ WallNS.
	DecodeNS int64 `json:"decode_ns,omitempty"`
	// CommitNS is the time a point's last turn spent committing its
	// result to the store.
	CommitNS int64 `json:"commit_ns,omitempty"`
	// CacheHit marks a point served from the result store without any
	// engine work.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Done marks the turn that finished its point.
	Done bool `json:"done,omitempty"`
	// Event marks lifecycle signals rather than turns: EventPanic when
	// the scheduler's recover boundary caught a panic in the point's
	// turn, EventCancel when cancellation aborted the point between
	// batches (its partial progress flushed as a checkpoint first).
	// Detail carries the human-readable cause.
	Event  string `json:"event,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// Lifecycle event kinds for Signal.Event.
const (
	EventPanic  = "panic"
	EventCancel = "cancel"
)

// Campaign is one campaign's telemetry: a lock-free signal ring, the
// Stats Record folds from it, the queue-depth gauge and — when the
// campaign is sampled — its trace recorder. All methods are safe for
// concurrent use by any number of sweep workers and readers.
type Campaign struct {
	tally        // the campaign's Stats; ID and Experiment never change
	total *tally // the registry's; nil for a standalone campaign
	start time.Time
	rec   *trace.Recorder // nil when the campaign is unsampled
	ring  *trace.Ring[Signal]
}

// tally is a locked fold of signals, one per campaign and one per
// registry; a turn is a whole engine batch, so its lock costs nothing.
// engine indexes st.Engines at the entry SetEngine last named: a
// campaign's sweeps run one after another, so that engine ran the turn.
type tally struct {
	mu     sync.Mutex
	st     Stats
	engine int
}

// add folds one signal. Only a turn that ran an engine call adds shots
// and errors; a cache hit counts in CacheHits and PointsDone.
func (t *tally) add(s Signal) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := &t.st
	switch s.Event {
	case "":
		// Lifecycle events are markers, not turns: they ride the ring
		// for the signals stream but fold into their own counters.
		st.PrepareNS += s.PrepareNS
		st.WallNS += s.WallNS
		st.DecodeNS += s.DecodeNS
		st.CommitNS += s.CommitNS
		if e := t.engine; e < len(st.Engines) && !s.CacheHit {
			st.Engines[e].Shots += int64(s.Shots)
			st.Engines[e].WallNS += s.WallNS
		}
		switch {
		case s.CacheHit:
			st.CacheHits++
		case s.Shots > 0: // an engine call ran
			st.Shots += int64(s.Shots)
			st.Errors += int64(s.Errors)
			st.Batches++
		}
		if s.Done {
			st.PointsDone++
			if !s.CacheHit && s.Hash != "" {
				st.CacheMisses++ // a cached campaign's point the engines computed
			}
		}
	case EventPanic:
		st.Panics++
	case EventCancel:
		st.Cancels++
	}
}

// set applies f to the Stats under the lock.
func (t *tally) set(f func(*Stats)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	f(&t.st)
}

// snapshot copies the Stats under the lock.
func (t *tally) snapshot() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.st
}

// NewCampaign builds a standalone campaign record (the CLI's -stats
// path); the daemon allocates through a Registry instead.
func NewCampaign(id int64, experiment string) *Campaign {
	c := &Campaign{start: time.Now(),
		ring: trace.NewRing(RingSize, func(s *Signal, seq uint64) { s.Seq = seq })}
	c.st.ID, c.st.Experiment = id, experiment
	return c
}

// ID returns the campaign's identifier.
func (c *Campaign) ID() int64 { return c.st.ID }

// Experiment returns the campaign's experiment name.
func (c *Campaign) Experiment() string { return c.st.Experiment }

// Recorder returns the campaign's trace recorder, nil when unsampled.
func (c *Campaign) Recorder() *trace.Recorder { return c.rec }

// Record publishes one signal: it folds it into the campaign's Stats
// and its registry's, then appends it to the ring, stamped with the
// next sequence number.
func (c *Campaign) Record(s Signal) {
	c.add(s)
	if c.total != nil {
		c.total.add(s)
	}
	c.ring.Add(s)
}

// SetQueueDepth updates the campaign's pending-point gauge.
func (c *Campaign) SetQueueDepth(depth int) { c.set(func(st *Stats) { st.QueueDepth = int64(depth) }) }

// SetEngine names the engine the campaign's next turns run on, adding
// it to the campaign's set: Stats.Engine joins the distinct names with
// "+" in first-use order, and Stats.Engines splits shots and run time
// among them.
func (c *Campaign) SetEngine(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := &c.st
	c.engine = slices.IndexFunc(st.Engines, func(e EngineStats) bool { return e.Name == name })
	if c.engine < 0 {
		c.engine = len(st.Engines)
		st.Engines = append(st.Engines, EngineStats{Name: name})
		st.Engine = strings.TrimPrefix(st.Engine+"+"+name, "+")
	}
}

// AddPlan adds the time one sweep of the campaign spent before its
// first turn: building the points and, with a cache, addressing them.
func (c *Campaign) AddPlan(d time.Duration) { c.set(func(st *Stats) { st.PlanNS += d.Nanoseconds() }) }

// Finish marks the campaign complete; the signals stream uses it to
// terminate follows.
func (c *Campaign) Finish() { c.set(func(st *Stats) { st.Done = true }) }

// Done reports whether the campaign has finished.
func (c *Campaign) Done() bool { return c.snapshot().Done }

// Since returns, in sequence order, at most max retained signals with
// Seq >= seq, plus the next sequence number to poll from; a reader more
// than RingSize behind skips the overwritten ones (trace.Ring.Since).
func (c *Campaign) Since(seq uint64, max int) ([]Signal, uint64) {
	return c.ring.Since(seq, max)
}

// Stats is the aggregate point-in-time view of a campaign, shared by
// /metrics, the signals stream's summary record and the CLI's -stats.
// Every counter but QueueDepth and PlanNS (the time before a sweep's
// first turn, reported by its builder) is a fold of the campaign's
// signals.
type Stats struct {
	ID          int64         `json:"id"`
	Experiment  string        `json:"experiment"`
	Engine      string        `json:"engine,omitempty"`
	Engines     []EngineStats `json:"engines,omitempty"`
	ElapsedNS   int64         `json:"elapsed_ns"`
	Shots       int64         `json:"shots"`
	Errors      int64         `json:"errors"`
	Batches     int64         `json:"batches"`
	WallNS      int64         `json:"wall_ns"`
	DecodeNS    int64         `json:"decode_ns"`
	PrepareNS   int64         `json:"prepare_ns"`
	CommitNS    int64         `json:"commit_ns"`
	PlanNS      int64         `json:"plan_ns"`
	ShotsPerSec float64       `json:"shots_per_sec"`
	CacheHits   int64         `json:"cache_hits"`
	CacheMisses int64         `json:"cache_misses"`
	PointsDone  int64         `json:"points_done"`
	Panics      int64         `json:"panics,omitempty"`
	Cancels     int64         `json:"cancels,omitempty"`
	QueueDepth  int64         `json:"queue_depth"`
	Done        bool          `json:"done"`
}

// EngineStats is one engine's share of a campaign that ran more than
// one: the shots it ran and their summed engine-call time.
type EngineStats struct {
	Name   string `json:"name"`
	Shots  int64  `json:"shots"`
	WallNS int64  `json:"wall_ns"`
}

// Stats snapshots the campaign. Shots and Errors are what the engines
// ran; a cache hit counts in CacheHits and PointsDone only. ShotsPerSec
// is engine throughput — those shots over summed engine wall time, not
// elapsed time — so it is comparable across campaigns that share a
// worker pool. It counts the turns' run time only; the points' set-up
// is PrepareNS, and DecodeNS is the decoder's part of WallNS.
func (c *Campaign) Stats() Stats {
	c.mu.Lock()
	st := c.st
	st.Engines = nil // only a campaign that ran more than one splits
	if len(c.st.Engines) > 1 {
		st.Engines = slices.Clone(c.st.Engines)
	}
	c.mu.Unlock()
	st.ElapsedNS = time.Since(c.start).Nanoseconds()
	if st.WallNS > 0 {
		st.ShotsPerSec = float64(st.Shots) / (float64(st.WallNS) / 1e9)
	}
	return st
}

// Registry is the daemon's campaign table: every active campaign plus
// the keepRecent latest finished ones, each holding its telemetry and
// (when sampled) its trace recorder, so a signals-stream or trace
// client that connects just after a short campaign completes still
// finds it. Its total folds every turn of every campaign it issued.
type Registry struct {
	mu        sync.Mutex
	nextID    int64
	campaigns []*Campaign // in ID order
	total     tally
}

// keepRecent bounds how many finished campaigns stay queryable.
const keepRecent = 64

// NewRegistry builds an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counts is the daemon's process-wide fold of the same turn records as
// its campaigns' Stats: campaigns issued and running, points computed
// and served from the store, and engine shots, however a campaign ended.
type Counts struct {
	Campaigns, Active                   int64
	PointsComputed, PointsCached, Shots int64
}

// Counts snapshots the registry: Campaigns is the last ID issued.
func (r *Registry) Counts() Counts {
	t := r.total.snapshot()
	r.mu.Lock()
	defer r.mu.Unlock()
	n := Counts{Campaigns: r.nextID, PointsComputed: t.PointsDone - t.CacheHits, PointsCached: t.CacheHits, Shots: t.Shots}
	for _, c := range r.campaigns {
		if !c.Done() {
			n.Active++
		}
	}
	return n
}

// New allocates the next campaign ID and registers its telemetry —
// folding into the registry's total — and, for a sampled campaign, its
// recorder (nil otherwise).
func (r *Registry) New(experiment string, rec *trace.Recorder) *Campaign {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	c := NewCampaign(r.nextID, experiment)
	c.rec, c.total = rec, &r.total
	r.campaigns = append(r.campaigns, c)
	return c
}

// Finish marks the campaign done and, past keepRecent finished, drops
// the oldest finished one. slices.Delete clears the vacated slot, so a
// dropped campaign (~170 KB of ring for a fig5 run) is collectable at
// once, not parked in the backing array until append outgrows it.
func (r *Registry) Finish(c *Campaign) {
	c.Finish()
	r.mu.Lock()
	defer r.mu.Unlock()
	finished := 0
	for _, o := range r.campaigns {
		if o.Done() {
			finished++
		}
	}
	if finished > keepRecent {
		i := slices.IndexFunc(r.campaigns, (*Campaign).Done)
		r.campaigns = slices.Delete(r.campaigns, i, i+1)
	}
}

// Get returns the campaign with the given ID, active or recent.
func (r *Registry) Get(id int64) (*Campaign, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := slices.BinarySearchFunc(r.campaigns, id, func(c *Campaign, id int64) int { return cmp.Compare(c.ID(), id) })
	if !ok {
		return nil, false
	}
	return r.campaigns[i], true
}

// ByTrace returns the recorder for a trace id, nil if no retained
// campaign recorded under it (GET /v1/traces/{trace_id}).
func (r *Registry) ByTrace(id trace.TraceID) *trace.Recorder {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.campaigns {
		if c.rec != nil && c.rec.TraceID() == id {
			return c.rec
		}
	}
	return nil
}

// Active returns the active campaigns in ID order.
func (r *Registry) Active() []*Campaign {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.DeleteFunc(slices.Clone(r.campaigns), (*Campaign).Done)
}
