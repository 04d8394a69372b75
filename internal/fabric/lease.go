package fabric

import (
	"sync"
	"sync/atomic"
	"time"
)

// lease is one live compute claim on a content hash.
type lease struct {
	owner   string
	expires time.Time
}

// LeaseTable is a node's in-memory point-lease ledger — the
// authoritative single-flight arbiter for the hashes the node owns.
// A lease says "this node is computing this point until the TTL
// lapses"; it carries no result, only exclusion. Leases are
// deliberately not persisted: a restarted node has lost its in-flight
// computes anyway, and an expired or vanished lease merely lets a peer
// recompute a point — wasted shots, never a wrong table.
type LeaseTable struct {
	mu     sync.Mutex
	leases map[string]lease

	granted atomic.Int64
	denied  atomic.Int64

	// now is the clock, swappable in tests to exercise expiry without
	// sleeping.
	now func() time.Time
}

// NewLeaseTable builds an empty lease table.
func NewLeaseTable() *LeaseTable {
	return &LeaseTable{leases: make(map[string]lease), now: time.Now}
}

// Claim attempts to take the compute lease on hash for owner. It
// returns ok=true when the lease was granted (fresh, re-entrant
// renewal by the same owner, or expired and reassigned), or ok=false
// with the conflicting holder and its remaining TTL.
func (t *LeaseTable) Claim(hash, owner string, ttl time.Duration) (ok bool, holder string, remaining time.Duration) {
	if ttl <= 0 {
		ttl = 10 * time.Second
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if l, live := t.leases[hash]; live && l.owner != owner && now.Before(l.expires) {
		t.denied.Add(1)
		return false, l.owner, l.expires.Sub(now)
	}
	t.leases[hash] = lease{owner: owner, expires: now.Add(ttl)}
	t.granted.Add(1)
	return true, owner, ttl
}

// Holder returns the live lease holder of hash, or "" when the hash is
// unleased or the lease has expired.
func (t *LeaseTable) Holder(hash string) string {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if l, live := t.leases[hash]; live && now.Before(l.expires) {
		return l.owner
	}
	return ""
}

// Granted and Denied are lifetime claim-outcome counters for /metrics.
func (t *LeaseTable) Granted() int64 { return t.granted.Load() }
func (t *LeaseTable) Denied() int64  { return t.denied.Load() }
