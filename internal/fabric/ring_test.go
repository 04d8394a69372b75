package fabric

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"
)

func hashes(n int) []string {
	out := make([]string, n)
	for i := range out {
		sum := sha256.Sum256([]byte(fmt.Sprintf("point-%d", i)))
		out[i] = hex.EncodeToString(sum[:])
	}
	return out
}

func TestRingDeterministicAcrossNodes(t *testing.T) {
	// Every node must compute identical ownership from the identical
	// peer list, whatever order it was given in.
	a := NewRing([]string{"n1:8080", "n2:8080", "n3:8080"})
	b := NewRing([]string{"n3:8080", "n1:8080", "n2:8080"})
	for _, h := range hashes(200) {
		if ao, bo := a.Owner(h, nil), b.Owner(h, nil); ao != bo {
			t.Fatalf("owner differs for %s: %q vs %q", h[:8], ao, bo)
		}
	}
}

func TestRingSpread(t *testing.T) {
	// Rendezvous hashing over SHA-256 inputs should not starve any
	// peer. With 3 peers and 600 hashes the expected share is 200;
	// accept anything within a generous factor.
	r := NewRing([]string{"n1:8080", "n2:8080", "n3:8080"})
	count := map[string]int{}
	for _, h := range hashes(600) {
		count[r.Owner(h, nil)]++
	}
	for p, n := range count {
		if n < 100 || n > 300 {
			t.Fatalf("peer %s owns %d of 600 hashes — spread too skewed: %v", p, n, count)
		}
	}
}

func TestRingRemovalOnlyMovesRemovedPeersHashes(t *testing.T) {
	// The fabric's failure story depends on this: marking a peer down
	// must not reshuffle ownership among the survivors.
	r := NewRing([]string{"n1:8080", "n2:8080", "n3:8080"})
	all := map[string]bool{"n1:8080": true, "n2:8080": true, "n3:8080": true}
	without2 := map[string]bool{"n1:8080": true, "n3:8080": true}
	for _, h := range hashes(300) {
		before := r.Owner(h, all)
		after := r.Owner(h, without2)
		if before != "n2:8080" && after != before {
			t.Fatalf("hash %s moved %q -> %q though its owner stayed alive", h[:8], before, after)
		}
		if before == "n2:8080" && after == "n2:8080" {
			t.Fatalf("hash %s still owned by removed peer", h[:8])
		}
	}
}

func TestRingEdgeCases(t *testing.T) {
	r := NewRing([]string{"n1:8080", "n1:8080", "", "n2:8080"})
	if got := len(r.Peers()); got != 2 {
		t.Fatalf("duplicate/empty peers not dropped: %v", r.Peers())
	}
	if o := r.Owner("abc", map[string]bool{}); o != "" {
		t.Fatalf("owner over empty alive set = %q, want \"\"", o)
	}
	single := NewRing([]string{"solo:1"})
	if o := single.Owner("abc", nil); o != "solo:1" {
		t.Fatalf("single-peer ring owner = %q", o)
	}
}

func TestLeaseClaimDenyExpiry(t *testing.T) {
	lt := NewLeaseTable()
	now := time.Unix(1000, 0)
	lt.now = func() time.Time { return now }

	ok, holder, _ := lt.Claim("h1", "n1", 10*time.Second)
	if !ok || holder != "n1" {
		t.Fatalf("fresh claim: ok=%v holder=%q", ok, holder)
	}
	// Re-entrant renewal by the same owner succeeds.
	if ok, _, _ := lt.Claim("h1", "n1", 10*time.Second); !ok {
		t.Fatal("same-owner renewal denied")
	}
	// A rival is denied while the lease is live, and sees the holder.
	ok, holder, remaining := lt.Claim("h1", "n2", 10*time.Second)
	if ok || holder != "n1" || remaining <= 0 {
		t.Fatalf("rival claim: ok=%v holder=%q remaining=%v", ok, holder, remaining)
	}
	// After expiry the rival takes it.
	now = now.Add(11 * time.Second)
	if ok, _, _ := lt.Claim("h1", "n2", 10*time.Second); !ok {
		t.Fatal("claim on expired lease denied")
	}
	if h := lt.Holder("h1"); h != "n2" {
		t.Fatalf("holder after expiry takeover = %q", h)
	}
	if lt.Granted() != 3 || lt.Denied() != 1 {
		t.Fatalf("counters granted=%d denied=%d, want 3/1", lt.Granted(), lt.Denied())
	}
}
