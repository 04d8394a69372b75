// Package fabric holds a rendezvous ring and a point-lease table. The
// daemon serves the lease table at POST /v1/points/{hash}/claim; the
// ring's only caller is the benchmark harness, which times Owner.
package fabric

import "hash/fnv"

// Ring assigns content hashes to peers by rendezvous (highest-random-
// weight) hashing: every node scores each (peer, hash) pair and the
// highest score owns the hash. Unlike a consistent-hash circle,
// rendezvous needs no virtual nodes to spread load, and removing a peer
// reassigns only that peer's hashes.
//
// The ring itself is immutable; callers pass the alive subset to Owner,
// so failure handling composes with ownership instead of mutating it.
type Ring struct {
	peers []string
}

// NewRing builds a ring over the full static peer list, dropping
// duplicates while preserving first-seen order.
func NewRing(peers []string) *Ring {
	seen := make(map[string]bool, len(peers))
	out := make([]string, 0, len(peers))
	for _, p := range peers {
		if p == "" || seen[p] {
			continue
		}
		seen[p] = true
		out = append(out, p)
	}
	return &Ring{peers: out}
}

// score is FNV-1a 64 over peer + NUL + hash. FNV is not a
// cryptographic hash, but the input already contains a SHA-256 content
// hash, so the scores inherit its spread; what matters here is that
// every node computes the identical score from the identical strings.
func score(peer, hash string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(peer))
	h.Write([]byte{0})
	h.Write([]byte(hash))
	return h.Sum64()
}

// Owner returns the peer owning hash among the alive set (nil alive
// means every peer is alive). Ties — vanishingly unlikely but cheap to
// make deterministic — break toward the lexically smaller peer.
// Returns "" only when no peer is alive.
func (r *Ring) Owner(hash string, alive map[string]bool) string {
	var best string
	var bestScore uint64
	for _, p := range r.peers {
		if alive != nil && !alive[p] {
			continue
		}
		s := score(p, hash)
		if best == "" || s > bestScore || (s == bestScore && p < best) {
			best, bestScore = p, s
		}
	}
	return best
}
