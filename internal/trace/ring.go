package trace

import "sync/atomic"

// Ring is the bounded lock-free log behind a campaign's signals and a
// recorder's spans. A writer claims a dense sequence number from one
// atomic counter and publishes into the slot it masks to; a reader
// snapshots without stalling writers. Past its size the ring keeps the
// most recent values, and the dense numbering shows readers the gap.
type Ring[T any] struct {
	seq   atomic.Uint64
	slots []atomic.Pointer[ringSlot[T]]
	stamp func(*T, uint64) // writes a value's sequence number into it
}

type ringSlot[T any] struct {
	seq uint64
	v   T
}

// NewRing builds a ring of size slots, a power of two.
func NewRing[T any](size int, stamp func(*T, uint64)) *Ring[T] {
	return &Ring[T]{slots: make([]atomic.Pointer[ringSlot[T]], size), stamp: stamp}
}

// Add stamps v with the next sequence number and publishes it.
func (r *Ring[T]) Add(v T) {
	p := &ringSlot[T]{seq: r.seq.Add(1) - 1, v: v}
	r.stamp(&p.v, p.seq)
	r.slots[p.seq&uint64(len(r.slots)-1)].Store(p)
}

// Len returns the next sequence number: every value added, dropped or not.
func (r *Ring[T]) Len() uint64 { return r.seq.Load() }

// Since returns, in sequence order, at most limit retained values numbered
// seq or later, and the number to read from next. It skips values
// overwritten before the read, and a slot whose writer has claimed its
// number but not yet stored: the next read picks that value up.
func (r *Ring[T]) Since(seq uint64, limit int) ([]T, uint64) {
	head := r.seq.Load()
	if seq >= head {
		return nil, head
	}
	seq = max(seq, head-min(head, uint64(len(r.slots))))
	out := make([]T, 0, min(head-seq, uint64(limit)))
	for ; seq < head && len(out) < limit; seq++ {
		if p := r.slots[seq&uint64(len(r.slots)-1)].Load(); p != nil && p.seq == seq {
			out = append(out, p.v)
		}
	}
	return out, seq
}
