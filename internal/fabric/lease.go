package fabric

import (
	"sync"
	"time"
)

// lease is one live compute claim on a content hash.
type lease struct {
	owner   string
	expires time.Time
}

// LeaseTable is the daemon's in-memory point-lease ledger behind
// POST /v1/points/{hash}/claim. A lease says "this owner is computing
// this point until the TTL lapses"; it carries no result, only
// exclusion. Leases are deliberately not persisted: a restarted daemon
// has lost its in-flight computes anyway.
//
// The table holds only what it must: expired leases are dropped by
// Claim, so one client claiming fresh hashes cannot grow it past twice
// the leases that were live at its last sweep.
type LeaseTable struct {
	mu     sync.Mutex
	leases map[string]lease
	// swept is the table's size after its last sweep; Claim sweeps
	// again once the table has doubled past it, so each sweep is paid
	// for by the claims that grew the table.
	swept int
	// latest is the furthest expiry in the table: once the clock
	// passes it every lease has lapsed and the table starts over.
	latest time.Time

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
		return false, l.owner, l.expires.Sub(now)
	}
	if !now.Before(t.latest) {
		t.leases, t.swept = make(map[string]lease), 0
	} else if len(t.leases) > 2*t.swept {
		t.sweep(now)
	}
	expires := now.Add(ttl)
	t.leases[hash] = lease{owner: owner, expires: expires}
	if expires.After(t.latest) {
		t.latest = expires
	}
	return true, owner, ttl
}

// sweep rebuilds the table from its live leases; a fresh map, because
// a Go map never returns the memory of deleted entries.
func (t *LeaseTable) sweep(now time.Time) {
	live := make(map[string]lease, len(t.leases))
	for h, l := range t.leases {
		if now.Before(l.expires) {
			live[h] = l
		}
	}
	t.leases, t.swept = live, len(live)
}
