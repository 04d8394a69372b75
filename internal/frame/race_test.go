//go:build race

package frame

// raceEnabled: under the race detector sync.Pool drops a quarter of
// what is Put, so pooled scratch has no steady state to hold to zero
// allocations; the miss-tier guards skip there.
const raceEnabled = true
