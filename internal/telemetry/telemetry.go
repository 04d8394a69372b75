// Package telemetry is the runtime-signals layer of the campaign
// engine: every engine invocation the sweep mechanism makes emits one
// Signal — shots, wall time, the decoder's part of it, throughput, the
// Wilson half-width before and after the chunk, the tail-CI width for
// tail-sensitive points, cache hits and process allocation deltas —
// onto a lock-free per-campaign ring. The HTTP daemon's /metrics and
// signals stream and the CLI's -stats report all consume the same
// structs.
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
)

// RingSize is the per-campaign signal ring capacity. It must be a
// power of two (the ring masks sequence numbers into slots). 1024
// chunks of history is hours of signal for a converged campaign and a
// few seconds for a hot one — the stream endpoint follows live, so the
// ring only has to bridge poll gaps, not hold a whole campaign.
const RingSize = 1024

// Signal is the telemetry record of one engine invocation — a chunk:
// one policy batch of one sweep point.
type Signal struct {
	// Seq is the campaign-wide sequence number, dense from 0.
	Seq uint64 `json:"seq"`
	// TimeNS is the wall-clock completion time in Unix nanoseconds.
	TimeNS int64 `json:"time_ns"`
	// Key is the sweep point the chunk belongs to.
	Key string `json:"key"`
	// Batch is the policy-batch index within the point (the number of
	// completed batches before this chunk's batch).
	Batch int `json:"batch"`
	// Start is the first shot index of the chunk; Shots and Errors are
	// the chunk's counts.
	Start  int `json:"start"`
	Shots  int `json:"shots"`
	Errors int `json:"errors"`
	// WallNS is the chunk's execution time; ShotsPerSec the implied
	// throughput.
	WallNS      int64   `json:"wall_ns"`
	ShotsPerSec float64 `json:"shots_per_sec"`
	// DecodeNS is the part of the chunk spent in the decoder, summed
	// over its decode calls: a share of WallNS on one shot worker, up to
	// the worker count times WallNS when a point fans its shots out.
	DecodeNS int64 `json:"decode_ns,omitempty"`
	// HWBefore and HWAfter bracket the point's Wilson 95% half-width
	// across the chunk.
	HWBefore float64 `json:"hw_before"`
	HWAfter  float64 `json:"hw_after"`
	// TailWidth is the half-width of the CI on the point's tail
	// statistic (CVaR of the per-batch rates), recorded only for points
	// an experiment declared tail-sensitive; 1 (the widest possible
	// width for a rate) until enough batches exist to estimate it.
	TailWidth float64 `json:"tail_width,omitempty"`
	// CacheHit marks a point served from the result store without any
	// engine work (Shots then counts the replayed shots).
	CacheHit bool `json:"cache_hit,omitempty"`
	// AllocBytes is the process-wide heap-allocation delta across the
	// chunk via runtime/metrics — a memory-pressure signal, attributed
	// per chunk but global to the process (concurrent campaigns bleed
	// into each other's deltas).
	AllocBytes int64 `json:"alloc_bytes,omitempty"`
	// Event marks lifecycle signals rather than engine chunks:
	// EventPanic when the scheduler's recover boundary caught a panic
	// in the point's turn, EventCancel when cancellation aborted the
	// point between batches (its partial progress flushed as a
	// checkpoint first), EventRemoteHit when a point parked on a fabric
	// peer resolved from the peer's committed result, EventTakeover
	// when the peer was declared dead (or ceded its lease) and the
	// point fell back to local compute. Detail carries the
	// human-readable cause.
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

// Route records the engine-resolution decision behind a campaign: the
// requested engine name, what it resolved to, and the policy reason —
// the signal that justified the route, kept so the stream and -stats
// can explain why a campaign ran where it did.
type Route struct {
	Requested string `json:"requested"`
	Resolved  string `json:"resolved"`
	Reason    string `json:"reason"`
}

// Campaign is one campaign's telemetry: a lock-free signal ring plus
// monotonic counters and the queue-depth gauge. All methods are safe for
// concurrent use by any number of sweep workers and readers.
type Campaign struct {
	id         int64
	experiment string
	start      time.Time

	seq   atomic.Uint64                    // next sequence number
	slots [RingSize]atomic.Pointer[Signal] // seq % RingSize

	shots       atomic.Int64
	errors      atomic.Int64
	chunks      atomic.Int64
	batches     atomic.Int64
	wallNS      atomic.Int64
	decodeNS    atomic.Int64
	prepareNS   atomic.Int64
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	pointsDone  atomic.Int64
	allocBytes  atomic.Int64
	panics      atomic.Int64
	cancels     atomic.Int64
	remoteHits  atomic.Int64
	takeovers   atomic.Int64

	// queueDepth is written by the scheduler and read by /metrics.
	queueDepth atomic.Int64

	route atomic.Pointer[Route]
	done  atomic.Bool
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

// Record publishes one signal: it claims the next sequence number,
// stamps the signal with it, folds the counters, and stores the signal
// in its ring slot. Lock-free: concurrent recorders claim distinct
// slots via the atomic sequence counter.
func (c *Campaign) Record(s Signal) {
	if s.Event == "" {
		// Lifecycle events (panic/cancel) are markers, not engine
		// chunks: they ride the ring for the signals stream but fold
		// into their own counters, not the chunk/shot aggregates.
		c.shots.Add(int64(s.Shots))
		c.errors.Add(int64(s.Errors))
		c.chunks.Add(1)
		c.wallNS.Add(s.WallNS)
		c.decodeNS.Add(s.DecodeNS)
		c.allocBytes.Add(s.AllocBytes)
		if s.CacheHit {
			c.cacheHits.Add(1)
		}
	}
	switch s.Event {
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

// Prepared adds the time one point spent building its runner (decoder
// resolution, simulator set-up) before its first chunk. Chunk WallNS
// starts after it, so set-up and run are disjoint and sum to the
// engine time the campaign's points cost.
func (c *Campaign) Prepared(d time.Duration) { c.prepareNS.Add(d.Nanoseconds()) }

// BatchDone counts one completed policy batch.
func (c *Campaign) BatchDone() { c.batches.Add(1) }

// CacheMiss counts one point that had to run the engines.
func (c *Campaign) CacheMiss() { c.cacheMisses.Add(1) }

// PointDone counts one completed point.
func (c *Campaign) PointDone() { c.pointsDone.Add(1) }

// SetQueueDepth updates the campaign's pending-point gauge.
func (c *Campaign) SetQueueDepth(depth int) { c.queueDepth.Store(int64(depth)) }

// SetRoute records the engine-resolution decision for the campaign.
func (c *Campaign) SetRoute(r Route) { c.route.Store(&r) }

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
type Stats struct {
	ID          int64   `json:"id"`
	Experiment  string  `json:"experiment"`
	ElapsedNS   int64   `json:"elapsed_ns"`
	Shots       int64   `json:"shots"`
	Errors      int64   `json:"errors"`
	Chunks      int64   `json:"chunks"`
	Batches     int64   `json:"batches"`
	WallNS      int64   `json:"wall_ns"`
	DecodeNS    int64   `json:"decode_ns"`
	PrepareNS   int64   `json:"prepare_ns"`
	ShotsPerSec float64 `json:"shots_per_sec"`
	CacheHits   int64   `json:"cache_hits"`
	CacheMisses int64   `json:"cache_misses"`
	PointsDone  int64   `json:"points_done"`
	AllocBytes  int64   `json:"alloc_bytes"`
	Panics      int64   `json:"panics,omitempty"`
	Cancels     int64   `json:"cancels,omitempty"`
	RemoteHits  int64   `json:"remote_hits,omitempty"`
	Takeovers   int64   `json:"takeovers,omitempty"`
	QueueDepth  int64   `json:"queue_depth"`
	Done        bool    `json:"done"`
	Route       *Route  `json:"route,omitempty"`
}

// Stats snapshots the campaign. ShotsPerSec is engine throughput —
// shots over summed engine wall time, not elapsed time — so it is
// comparable across campaigns that share a worker pool. It counts the
// chunks' run time only; the points' set-up is PrepareNS, and DecodeNS
// is the decoder's part of WallNS.
func (c *Campaign) Stats() Stats {
	wall := c.wallNS.Load()
	shots := c.shots.Load()
	var sps float64
	if wall > 0 {
		sps = float64(shots) / (float64(wall) / 1e9)
	}
	return Stats{
		ID:          c.id,
		Experiment:  c.experiment,
		ElapsedNS:   time.Since(c.start).Nanoseconds(),
		Shots:       shots,
		Errors:      c.errors.Load(),
		Chunks:      c.chunks.Load(),
		Batches:     c.batches.Load(),
		WallNS:      wall,
		DecodeNS:    c.decodeNS.Load(),
		PrepareNS:   c.prepareNS.Load(),
		ShotsPerSec: sps,
		CacheHits:   c.cacheHits.Load(),
		CacheMisses: c.cacheMisses.Load(),
		PointsDone:  c.pointsDone.Load(),
		AllocBytes:  c.allocBytes.Load(),
		Panics:      c.panics.Load(),
		Cancels:     c.cancels.Load(),
		RemoteHits:  c.remoteHits.Load(),
		Takeovers:   c.takeovers.Load(),
		QueueDepth:  c.queueDepth.Load(),
		Done:        c.done.Load(),
		Route:       c.route.Load(),
	}
}

// Registry tracks campaign telemetry for the daemon: active campaigns
// plus a bounded tail of recently finished ones, so a signals-stream
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

// New allocates the next campaign ID and registers its telemetry.
func (r *Registry) New(experiment string) *Campaign {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	c := NewCampaign(r.nextID, experiment)
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
