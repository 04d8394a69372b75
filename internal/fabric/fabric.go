// Package fabric shards campaigns across a static ring of radqecd
// nodes. Every point's content hash is rendezvous-hashed onto the ring
// (ring.go); each node computes only the points it owns and resolves
// the rest from their owners over the v1 API, committing fetched
// results into its local store so its own tables finalize from the
// identical CachedPoint bytes a single-node run would have produced.
// Cross-node single-flight is a point-lease handshake (lease.go): a
// node that must take over a down or stalled owner's point first
// claims the lease at the owner, so two impatient nodes never both
// burn the shots.
//
// The design is symmetric: the node a client submits to fans the
// campaign out to every peer (marked Fabric so peers don't fan out
// again), and each node independently runs the full campaign over its
// owned subset. There is no leader — ownership is a pure function of
// (hash, alive set) every node computes locally — so the failure story
// reduces to the alive set: an unreachable peer is marked down, the
// ring recomputes over the survivors, and its points are taken over
// locally.
package fabric

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"radqec/internal/client"
	"radqec/internal/faultinject"
	"radqec/internal/store"
	"radqec/internal/sweep"
	"radqec/internal/trace"
)

// Options configures a Coordinator.
type Options struct {
	// Self is this node's own address as it appears in Peers.
	Self string
	// Peers is the full static ring, self included.
	Peers []string
	// Store is the node's result store; fetched remote results are
	// committed into it before the waiting point unparks.
	Store *store.Store
	// HTTPClient is shared by all peer clients (nil = a default).
	HTTPClient *http.Client

	// PollInterval is the owner-polling cadence of a watch loop and
	// the long-poll window passed to remote lookups (default 2s).
	PollInterval time.Duration
	// RetryLimit is how many consecutive failed calls a peer gets
	// before being marked down (default 3).
	RetryLimit int
	// DownFor is how long a down mark lasts before the peer is probed
	// again (default 15s).
	DownFor time.Duration
	// TakeoverPatience is how long a watch tolerates "owner alive but
	// point not committed" before claiming the compute lease from the
	// owner (default 30s). A held lease resets the clock.
	TakeoverPatience time.Duration
	// LeaseTTL bounds a granted compute lease (default 10s).
	LeaseTTL time.Duration
	// Logger receives the coordinator's diagnostics — peer down
	// marks, fan-out failures, takeovers — with trace/span ids
	// attached when the triggering campaign is sampled. nil picks
	// slog.Default().
	Logger *slog.Logger
}

func (o *Options) defaults() {
	if o.PollInterval <= 0 {
		o.PollInterval = 2 * time.Second
	}
	if o.RetryLimit <= 0 {
		o.RetryLimit = 3
	}
	if o.DownFor <= 0 {
		o.DownFor = 15 * time.Second
	}
	if o.TakeoverPatience <= 0 {
		o.TakeoverPatience = 30 * time.Second
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 10 * time.Second
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
}

// peerState is the failure-detector record of one remote peer.
type peerState struct {
	failures  int
	downUntil time.Time
}

// Coordinator is a node's fabric brain: the ring, the per-peer
// clients, the failure detector, and the lease table peers claim
// against. It implements sweep.RemoteResolver, so plugging it into a
// sweep's Mechanism is all it takes to shard that sweep.
type Coordinator struct {
	opts   Options
	ring   *Ring
	leases *LeaseTable

	mu      sync.Mutex
	clients map[string]*client.Client
	peers   map[string]*peerState

	remoteHits   atomic.Int64
	remoteMisses atomic.Int64
	takeovers    atomic.Int64
	peerSubmits  atomic.Int64
	peerFailures atomic.Int64
}

// New builds a coordinator. Self must appear in Peers and the ring
// must contain at least one peer.
func New(opts Options) (*Coordinator, error) {
	opts.defaults()
	ring := NewRing(opts.Peers)
	if len(ring.Peers()) == 0 {
		return nil, fmt.Errorf("fabric: empty peer ring")
	}
	found := false
	for _, p := range ring.Peers() {
		if p == opts.Self {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("fabric: self %q not in peer ring %v", opts.Self, ring.Peers())
	}
	if opts.Store == nil {
		return nil, fmt.Errorf("fabric: a result store is required")
	}
	c := &Coordinator{
		opts:    opts,
		ring:    ring,
		leases:  NewLeaseTable(),
		clients: make(map[string]*client.Client),
		peers:   make(map[string]*peerState),
	}
	for _, p := range ring.Peers() {
		if p != opts.Self {
			c.clients[p] = client.New(p, opts.HTTPClient)
			c.peers[p] = &peerState{}
		}
	}
	return c, nil
}

// Self returns this node's ring address.
func (c *Coordinator) Self() string { return c.opts.Self }

// Peers returns the full static ring.
func (c *Coordinator) Peers() []string { return c.ring.Peers() }

// Leases returns the node's lease table — the server wires its
// /v1/points/{hash}/claim endpoint to it.
func (c *Coordinator) Leases() *LeaseTable { return c.leases }

// alive snapshots the currently-alive peer set (self always included).
func (c *Coordinator) alive() map[string]bool {
	now := time.Now()
	out := map[string]bool{c.opts.Self: true}
	c.mu.Lock()
	defer c.mu.Unlock()
	for p, st := range c.peers {
		out[p] = now.After(st.downUntil)
	}
	return out
}

// AliveCount returns how many ring members are currently considered
// alive.
func (c *Coordinator) AliveCount() int {
	n := 0
	for _, ok := range c.alive() {
		if ok {
			n++
		}
	}
	return n
}

// observe folds one call outcome into the failure detector. A success
// clears the peer's strike count and any down mark; RetryLimit
// consecutive failures mark it down for DownFor.
func (c *Coordinator) observe(peer string, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.peers[peer]
	if !ok {
		return
	}
	if err == nil {
		st.failures = 0
		st.downUntil = time.Time{}
		return
	}
	c.peerFailures.Add(1)
	st.failures++
	if st.failures >= c.opts.RetryLimit {
		st.failures = 0
		st.downUntil = time.Now().Add(c.opts.DownFor)
		c.opts.Logger.Warn("fabric: peer marked down after repeated failures",
			"peer", peer, "down_for", c.opts.DownFor, "last_error", err.Error())
	}
}

// markDown forces a peer down immediately — used when a campaign
// stream to it collapses, which is stronger evidence than one failed
// poll.
func (c *Coordinator) markDown(peer string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st, ok := c.peers[peer]; ok {
		st.failures = 0
		st.downUntil = time.Now().Add(c.opts.DownFor)
		c.opts.Logger.Warn("fabric: peer marked down", "peer", peer, "down_for", c.opts.DownFor)
	}
}

// Owned reports whether this node computes hash itself under the
// current alive set. Part of sweep.RemoteResolver.
func (c *Coordinator) Owned(hash string) bool {
	return c.ring.Owner(hash, c.alive()) == c.opts.Self
}

// Watch resolves one remotely-owned hash in the background and calls
// done exactly once: done(false) after the owner's committed result
// has been fetched and committed into the local store, or
// done(true) when this node must compute the point itself (owner down
// and ring reassigned it here, or a takeover lease granted). If ctx is
// cancelled first, done is never called — the scheduler's abort drain
// retires parked points. Part of sweep.RemoteResolver.
func (c *Coordinator) Watch(ctx context.Context, hash string, done func(takeover bool)) {
	go c.watch(ctx, hash, done)
}

func (c *Coordinator) watch(ctx context.Context, hash string, done func(takeover bool)) {
	start := time.Now()
	patience := start.Add(c.opts.TakeoverPatience)
	// Sampled campaigns carry their span context in ctx; the watch
	// resolves as one remote-fetch or takeover span covering the whole
	// park, plus a lease-wait span from the first claim attempt — the
	// "where did this point's 30 seconds go" answer.
	sc := trace.FromContext(ctx)
	var firstClaim time.Time
	resolve := func(name, detail string) {
		if !sc.Sampled() {
			return
		}
		if !firstClaim.IsZero() {
			ls := sc.StartAt(trace.SpanLeaseWait, "", firstClaim)
			ls.SetHash(hash)
			ls.End()
		}
		s := sc.StartAt(name, "", start)
		s.SetHash(hash)
		s.SetDetail(detail)
		s.End()
	}
	for {
		if ctx.Err() != nil {
			return
		}
		// A result already in the local store wins unconditionally —
		// a previous watch, campaign, or fan-in committed it.
		if _, ok := c.opts.Store.Lookup(hash); ok {
			c.remoteHits.Add(1)
			resolve(trace.SpanRemoteFetch, "committed result already in local store")
			done(false)
			return
		}
		owner := c.ring.Owner(hash, c.alive())
		if owner == c.opts.Self || owner == "" {
			// The ring reassigned the hash here (owner down). Claim
			// the local lease so concurrent campaigns on this node
			// still single-flight, then compute.
			if ok, _, _ := c.leases.Claim(hash, c.opts.Self, c.opts.LeaseTTL); ok {
				c.takeovers.Add(1)
				resolve(trace.SpanTakeover, "ring reassigned; computing locally")
				c.logTakeover(sc, hash, "owner down, ring reassigned")
				done(true)
				return
			}
			// Another local campaign holds the lease; its commit will
			// land in the store and the next iteration finds it.
			if !c.sleep(ctx) {
				return
			}
			continue
		}
		cp, found, err := c.lookupAt(ctx, owner, hash)
		if err != nil && ctx.Err() != nil {
			// Our own campaign ended mid-call: that says nothing about
			// the peer, and charging it would take its points over from
			// under a sibling campaign still watching them.
			return
		}
		c.observe(owner, err)
		if err != nil {
			if !c.sleep(ctx) {
				return
			}
			continue
		}
		if found {
			c.opts.Store.Commit(hash, cp)
			c.remoteHits.Add(1)
			resolve(trace.SpanRemoteFetch, "fetched from "+owner)
			done(false)
			return
		}
		c.remoteMisses.Add(1)
		if time.Now().After(patience) {
			// The owner is alive but hasn't committed the point within
			// patience — ask it for the compute lease and take over if
			// granted. A held lease means it IS being computed; give
			// the holder a fresh patience window.
			if firstClaim.IsZero() {
				firstClaim = time.Now()
			}
			claim, err := c.clientFor(owner).ClaimPoint(ctx, hash, c.opts.Self, c.opts.LeaseTTL)
			c.observe(owner, err)
			switch {
			case err != nil:
				// Fall through to the retry sleep; repeated failures
				// mark the owner down and the ring takes over.
			case claim.Status == client.ClaimGranted:
				c.takeovers.Add(1)
				resolve(trace.SpanTakeover, "lease granted by "+owner)
				c.logTakeover(sc, hash, "lease granted by "+owner)
				done(true)
				return
			case claim.Status == client.ClaimCommitted:
				continue // next lookup fetches it
			default: // held
				patience = time.Now().Add(c.opts.TakeoverPatience)
			}
		}
		if !c.sleep(ctx) {
			return
		}
	}
}

// logTakeover reports a point takeover, attaching the campaign's
// trace/span ids when it is sampled.
func (c *Coordinator) logTakeover(sc trace.SpanContext, hash, why string) {
	log := c.opts.Logger
	if sc.Sampled() {
		log = log.With("trace_id", sc.TraceID().String(), "span_id", sc.SpanID().String())
	}
	log.Info("fabric: taking over point", "hash", hash, "reason", why)
}

// lookupAt fetches hash's committed result from peer, long-polling one
// poll interval so a point that commits during the window returns
// immediately.
func (c *Coordinator) lookupAt(ctx context.Context, peer, hash string) (sweep.CachedPoint, bool, error) {
	if err := faultinject.Eval(faultinject.PeerLookupError); err != nil {
		return sweep.CachedPoint{}, false, err
	}
	cctx, cancel := context.WithTimeout(ctx, c.opts.PollInterval+10*time.Second)
	defer cancel()
	return c.clientFor(peer).LookupPoint(cctx, hash, c.opts.PollInterval)
}

func (c *Coordinator) clientFor(peer string) *client.Client {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.clients[peer]
}

// sleep waits one poll interval; false means ctx ended first.
func (c *Coordinator) sleep(ctx context.Context) bool {
	t := time.NewTimer(c.opts.PollInterval)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// FanOut re-submits a client-originated campaign to every other ring
// peer, marked Fabric so they don't fan out again and coupled to this
// node's connection (detach=0) so peer campaigns die with the
// coordinator. Peer streams are drained in the background purely as
// liveness signals — results travel through the point API, not the
// streams. A peer that rejects the submit or drops its stream is
// marked down; the campaign proceeds with the survivors (worst case,
// entirely locally).
func (c *Coordinator) FanOut(ctx context.Context, req client.CampaignRequest) {
	req.Fabric = true
	detach := false
	for _, p := range c.ring.Peers() {
		if p == c.opts.Self {
			continue
		}
		go func(peer string) {
			c.peerSubmits.Add(1)
			if err := faultinject.Eval(faultinject.PeerSubmitError); err != nil {
				c.observe(peer, err)
				c.markDown(peer)
				return
			}
			stream, err := c.clientFor(peer).SubmitCampaign(ctx, req, client.SubmitOptions{Detach: &detach})
			c.observe(peer, err)
			if err != nil {
				c.opts.Logger.Warn("fabric: campaign fan-out failed", "peer", peer, "error", err.Error())
				c.markDown(peer)
				return
			}
			defer stream.Close()
			for {
				if _, err := stream.Next(); err != nil {
					if err != io.EOF && ctx.Err() == nil {
						c.markDown(peer)
					}
					return
				}
			}
		}(p)
	}
}

// Stats is the coordinator's /metrics snapshot.
type Stats struct {
	Peers         int
	PeersAlive    int
	RemoteHits    int64
	RemoteMisses  int64
	Takeovers     int64
	PeerSubmits   int64
	PeerFailures  int64
	LeasesGranted int64
	LeasesDenied  int64
}

// Stats snapshots the coordinator's counters.
func (c *Coordinator) Stats() Stats {
	return Stats{
		Peers:         len(c.ring.Peers()),
		PeersAlive:    c.AliveCount(),
		RemoteHits:    c.remoteHits.Load(),
		RemoteMisses:  c.remoteMisses.Load(),
		Takeovers:     c.takeovers.Load(),
		PeerSubmits:   c.peerSubmits.Load(),
		PeerFailures:  c.peerFailures.Load(),
		LeasesGranted: c.leases.Granted(),
		LeasesDenied:  c.leases.Denied(),
	}
}
