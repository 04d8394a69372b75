// Package telemetry is the runtime-signals layer of the campaign
// engine. The sweep scheduler publishes one Signal per turn — one policy
// batch of one point as one engine call, with the set-up before it and
// the commit after it when the turn had them — onto a lock-free
// per-campaign ring, and every aggregate (Stats) folds from those
// records inside Record. The HTTP daemon's /metrics and signals stream
// and the CLI's -stats report all read the same structs.
//
// Telemetry is strictly observational: nothing in this package feeds
// back into shot streams, batch boundaries or scheduling, so recording
// signals can never perturb results.
package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"radqec/internal/trace"
)

// RingSize is the per-campaign signal ring capacity. It must be a
// power of two (the ring masks sequence numbers into slots). 1024
// turns of history is hours of signal for a converged campaign and a
// few seconds for a hot one — the stream endpoint follows live, so the
// ring only has to bridge poll gaps, not hold a whole campaign.
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
	// Errors are the batch's counts (the replayed totals on a cache hit).
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
	// batches (its partial progress flushed as a checkpoint first),
	// EventRemoteHit when a point parked on a fabric peer resolved from
	// the peer's committed result, EventTakeover when the peer was
	// declared dead (or ceded its lease) and the point fell back to
	// local compute. Detail carries the human-readable cause.
	Event  string `json:"event,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// Lifecycle event kinds for Signal.Event.
const (
	EventPanic     = "panic"
	EventCancel    = "cancel"
	EventRemoteHit = "remote_hit"
	EventTakeover  = "takeover"
)

// Campaign is one campaign's telemetry: a lock-free signal ring, the
// counters Record folds from it, the queue-depth gauge and — when the
// campaign is sampled — its trace recorder. All methods are safe for
// concurrent use by any number of sweep workers and readers.
type Campaign struct {
	id         int64
	experiment string
	start      time.Time
	rec        *trace.Recorder // nil when the campaign is unsampled

	seq   atomic.Uint64                    // next sequence number
	slots [RingSize]atomic.Pointer[Signal] // seq % RingSize

	shots       atomic.Int64
	errors      atomic.Int64
	batches     atomic.Int64
	wallNS      atomic.Int64
	decodeNS    atomic.Int64
	prepareNS   atomic.Int64
	commitNS    atomic.Int64
	planNS      atomic.Int64
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	pointsDone  atomic.Int64
	panics      atomic.Int64
	cancels     atomic.Int64
	remoteHits  atomic.Int64
	takeovers   atomic.Int64

	// queueDepth is written by the scheduler and read by /metrics.
	queueDepth atomic.Int64

	engine atomic.Pointer[string]
	done   atomic.Bool
}

// NewCampaign builds a standalone campaign record (the CLI's -stats
// path); the daemon allocates through a Registry instead.
func NewCampaign(id int64, experiment string) *Campaign {
	return &Campaign{id: id, experiment: experiment, start: time.Now()}
}

// ID returns the campaign's identifier.
func (c *Campaign) ID() int64 { return c.id }

// Experiment returns the campaign's experiment name.
func (c *Campaign) Experiment() string { return c.experiment }

// Recorder returns the campaign's trace recorder, nil when unsampled.
func (c *Campaign) Recorder() *trace.Recorder { return c.rec }

// Record publishes one signal: it folds the counters, claims the next
// sequence number, stamps the signal with it and stores it in its ring
// slot. Lock-free: concurrent recorders claim distinct slots via the
// atomic sequence counter.
func (c *Campaign) Record(s Signal) {
	switch s.Event {
	case "":
		// Lifecycle events are markers, not turns: they ride the ring
		// for the signals stream but fold into their own counters.
		c.shots.Add(int64(s.Shots))
		c.errors.Add(int64(s.Errors))
		c.prepareNS.Add(s.PrepareNS)
		c.wallNS.Add(s.WallNS)
		c.decodeNS.Add(s.DecodeNS)
		c.commitNS.Add(s.CommitNS)
		switch {
		case s.CacheHit:
			c.cacheHits.Add(1)
		case s.Shots > 0:
			c.batches.Add(1) // an engine call ran
		}
		if s.Done {
			c.pointsDone.Add(1)
			if !s.CacheHit && s.Hash != "" {
				c.cacheMisses.Add(1) // a cached campaign's point the engines computed
			}
		}
	case EventPanic:
		c.panics.Add(1)
	case EventCancel:
		c.cancels.Add(1)
	case EventRemoteHit:
		c.remoteHits.Add(1)
	case EventTakeover:
		c.takeovers.Add(1)
	}
	s.Seq = c.seq.Add(1) - 1
	c.slots[s.Seq%RingSize].Store(&s)
}

// SetQueueDepth updates the campaign's pending-point gauge.
func (c *Campaign) SetQueueDepth(depth int) { c.queueDepth.Store(int64(depth)) }

// SetEngine records the engine the campaign's points resolved to.
func (c *Campaign) SetEngine(name string) { c.engine.Store(&name) }

// AddPlan adds the time one sweep of the campaign spent before its
// first turn: building the points and, with a cache, addressing them.
func (c *Campaign) AddPlan(d time.Duration) { c.planNS.Add(d.Nanoseconds()) }

// Finish marks the campaign complete; the signals stream uses it to
// terminate follows.
func (c *Campaign) Finish() { c.done.Store(true) }

// Done reports whether the campaign has finished.
func (c *Campaign) Done() bool { return c.done.Load() }

// Since returns, in sequence order, every retained signal with
// Seq >= seq, plus the next sequence number to poll from. Signals
// overwritten before the read (a reader more than RingSize behind) are
// skipped — the dense Seq numbering makes the gap visible to the
// consumer. A slot whose writer has claimed a sequence number but not
// yet stored the signal reads as its previous generation and is
// filtered by the Seq check; the signal is picked up by the next poll.
func (c *Campaign) Since(seq uint64, max int) ([]Signal, uint64) {
	head := c.seq.Load()
	if seq >= head {
		return nil, head
	}
	if head-seq > RingSize {
		seq = head - RingSize
	}
	out := make([]Signal, 0, min(int(head-seq), max))
	for ; seq < head && len(out) < max; seq++ {
		p := c.slots[seq%RingSize].Load()
		if p != nil && p.Seq == seq {
			out = append(out, *p)
		}
	}
	return out, seq
}

// Stats is the aggregate point-in-time view of a campaign, shared by
// /metrics, the signals stream's summary record and the CLI's -stats.
// Every counter but QueueDepth and PlanNS (the time before a sweep's
// first turn, reported by its builder) is a fold of the campaign's
// signals.
type Stats struct {
	ID          int64   `json:"id"`
	Experiment  string  `json:"experiment"`
	Engine      string  `json:"engine,omitempty"`
	ElapsedNS   int64   `json:"elapsed_ns"`
	Shots       int64   `json:"shots"`
	Errors      int64   `json:"errors"`
	Batches     int64   `json:"batches"`
	WallNS      int64   `json:"wall_ns"`
	DecodeNS    int64   `json:"decode_ns"`
	PrepareNS   int64   `json:"prepare_ns"`
	CommitNS    int64   `json:"commit_ns"`
	PlanNS      int64   `json:"plan_ns"`
	ShotsPerSec float64 `json:"shots_per_sec"`
	CacheHits   int64   `json:"cache_hits"`
	CacheMisses int64   `json:"cache_misses"`
	PointsDone  int64   `json:"points_done"`
	Panics      int64   `json:"panics,omitempty"`
	Cancels     int64   `json:"cancels,omitempty"`
	RemoteHits  int64   `json:"remote_hits,omitempty"`
	Takeovers   int64   `json:"takeovers,omitempty"`
	QueueDepth  int64   `json:"queue_depth"`
	Done        bool    `json:"done"`
}

// Stats snapshots the campaign. ShotsPerSec is engine throughput —
// shots over summed engine wall time, not elapsed time — so it is
// comparable across campaigns that share a worker pool. It counts the
// turns' run time only; the points' set-up is PrepareNS, and DecodeNS
// is the decoder's part of WallNS.
func (c *Campaign) Stats() Stats {
	wall := c.wallNS.Load()
	shots := c.shots.Load()
	var sps float64
	if wall > 0 {
		sps = float64(shots) / (float64(wall) / 1e9)
	}
	st := Stats{
		ID:          c.id,
		Experiment:  c.experiment,
		ElapsedNS:   time.Since(c.start).Nanoseconds(),
		Shots:       shots,
		Errors:      c.errors.Load(),
		Batches:     c.batches.Load(),
		WallNS:      wall,
		DecodeNS:    c.decodeNS.Load(),
		PrepareNS:   c.prepareNS.Load(),
		CommitNS:    c.commitNS.Load(),
		PlanNS:      c.planNS.Load(),
		ShotsPerSec: sps,
		CacheHits:   c.cacheHits.Load(),
		CacheMisses: c.cacheMisses.Load(),
		PointsDone:  c.pointsDone.Load(),
		Panics:      c.panics.Load(),
		Cancels:     c.cancels.Load(),
		RemoteHits:  c.remoteHits.Load(),
		Takeovers:   c.takeovers.Load(),
		QueueDepth:  c.queueDepth.Load(),
		Done:        c.done.Load(),
	}
	if e := c.engine.Load(); e != nil {
		st.Engine = *e
	}
	return st
}

// Registry is the daemon's campaign table: active campaigns plus a
// bounded tail of recently finished ones, each holding its telemetry
// and (when sampled) its trace recorder, so a signals-stream or trace
// client that connects just after a short campaign completes still
// finds it.
type Registry struct {
	mu     sync.Mutex
	nextID int64
	active map[int64]*Campaign
	recent []*Campaign // oldest first, bounded by keepRecent
}

// keepRecent bounds how many finished campaigns stay queryable.
const keepRecent = 64

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{active: make(map[int64]*Campaign)}
}

// New allocates the next campaign ID and registers its telemetry and,
// for a sampled campaign, its recorder (nil otherwise).
func (r *Registry) New(experiment string, rec *trace.Recorder) *Campaign {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	c := NewCampaign(r.nextID, experiment)
	c.rec = rec
	r.active[c.id] = c
	return c
}

// Finish marks the campaign done and moves it to the recent tail. The
// tail is shifted down in place rather than re-sliced forward: a slice
// that only advances its start keeps every rotated-out campaign (ring
// and signals, ~170 KB for a fig5 run) reachable through the backing
// array until append outgrows it, so the daemon's heap would saw
// between keepRecent and 2·keepRecent retained campaigns.
func (r *Registry) Finish(c *Campaign) {
	c.Finish()
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.active, c.id)
	r.recent = append(r.recent, c)
	if over := len(r.recent) - keepRecent; over > 0 {
		n := copy(r.recent, r.recent[over:])
		clear(r.recent[n:])
		r.recent = r.recent[:n]
	}
}

// Get returns the campaign with the given ID, active or recent.
func (r *Registry) Get(id int64) (*Campaign, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.active[id]; ok {
		return c, true
	}
	for _, c := range r.recent {
		if c.id == id {
			return c, true
		}
	}
	return nil, false
}

// ByTrace returns this node's recorder for a trace id, nil if no
// retained campaign recorded under it (peer fan-in when stitching a
// distributed trace). When several campaigns share the trace, the first
// registered — the lowest campaign id — wins.
func (r *Registry) ByTrace(id trace.TraceID) *trace.Recorder {
	r.mu.Lock()
	defer r.mu.Unlock()
	var first *Campaign
	consider := func(c *Campaign) {
		if c.rec != nil && c.rec.TraceID() == id && (first == nil || c.id < first.id) {
			first = c
		}
	}
	for _, c := range r.active {
		consider(c)
	}
	for _, c := range r.recent {
		consider(c)
	}
	if first == nil {
		return nil
	}
	return first.rec
}

// Active returns the active campaigns in ID order.
func (r *Registry) Active() []*Campaign {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Campaign, 0, len(r.active))
	for _, c := range r.active {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}
