package qec

import (
	"sync"
	"sync/atomic"
)

// The syndrome memo used to be a sync.Map keyed by boxed uint64/[2]uint64
// values, which cost one interface allocation and a runtime hash per
// decoded lane — the dominant term of the batch-decode hot path once
// detection-event extraction went word-parallel. parityMemo replaces it
// with an open-addressed table of one-word entries whose lookups and
// inserts allocate nothing; only growing the table does.
const (
	// memoKeyBits is the widest defect pattern a memo entry holds: an
	// entry packs the pattern, its parity and a ready bit into one
	// word (see memoEntry). A code with more detector bits decodes
	// every triggered lane directly and never touches its memo.
	memoKeyBits = 62
	// memoMinSlotBits and memoMaxSlotBits bound the table: it starts at
	// 1024 slots (8 KB) and stops growing at 32768 (256 KB) — or at
	// twice the code's pattern space when that is smaller; with the 3/4
	// load cap below the final entry capacity stays close to the old
	// batchCacheCap while linear probes stay short.
	memoMinSlotBits = 10
	memoMaxSlotBits = 15
	// memoGrowShift is the growth step: a table at its load cap is
	// replaced by one four times the size.
	memoGrowShift = 2
	// memoProbeCap bounds a probe sequence; a key that cannot find a
	// home within it is simply not cached (the decode still runs, it
	// just is not memoised), mirroring the old cap fallback.
	memoProbeCap = 32
)

// memoEntry packs a defect pattern of at most memoKeyBits bits and its
// flip parity into one table word: pattern<<2 | parity<<1 | 1. The low
// bit marks the word ready, so 0 is the empty slot and no entry is 0.
// A slot goes from 0 to its entry in one compare-and-swap and never
// changes again, so a reader sees either nothing or the whole entry.
func memoEntry(pattern, parity uint64) uint64 { return pattern<<2 | parity<<1 | 1 }

// memoTable is one generation of a memo's storage: a power-of-two slot
// array and its population.
type memoTable struct {
	slots []atomic.Uint64
	size  atomic.Int64
}

// entryCap is the insert cap, 3/4 of the slots: a table that reaches it
// grows, or — at full size, where adversarial workloads (huge codes
// under saturating faults) would only raise the load factor — stops
// taking inserts and lets those decodes run directly.
func (t *memoTable) entryCap() int64 { return int64(len(t.slots)) * 3 / 4 }

// parityMemo is a bounded lock-free syndrome-to-flip-parity cache, one
// per code, holding MWPM's answers (see Code.memo). Its table follows
// what the code actually sees: nothing until the first insert (the many
// Code values that are built but never batch-decoded — a daemon
// replaying stored campaigns, tests — cost a few words), then 1024
// slots, then four times more whenever the load cap is reached, up to
// twice the code's pattern space or 32768 slots. A 12-bit DEM under
// a localised strike stays at 8 KB where a 24-bit one under saturating
// strikes climbs to the full 256 KB.
type parityMemo struct {
	table atomic.Pointer[memoTable]
	// growMu serialises table replacement; lookups and inserts never
	// take it.
	growMu sync.Mutex
	// maxSlots is the size the table stops growing at.
	maxSlots int
}

// newParityMemo builds an empty memo for a code with the given number
// of detector bits.
func newParityMemo(detectorBits int) *parityMemo {
	return &parityMemo{maxSlots: 1 << min(memoMaxSlotBits, detectorBits+1)}
}

// entries reports the memo's population.
func (m *parityMemo) entries() int64 {
	if t := m.table.Load(); t != nil {
		return t.size.Load()
	}
	return 0
}

// memoHash mixes a defect pattern into a table index (SplitMix64
// finaliser).
func memoHash(pattern uint64) uint64 {
	x := pattern
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// load returns the cached flip parity of the defect pattern. h must be
// memoHash(pattern); callers share one hash across the probe and the
// insert.
func (m *parityMemo) load(h, pattern uint64) (uint64, bool) {
	t := m.table.Load()
	if t == nil {
		return 0, false
	}
	mask := uint64(len(t.slots) - 1)
	for i := uint64(0); i < min(memoProbeCap, uint64(len(t.slots))); i++ {
		e := t.slots[(h+i)&mask].Load()
		if e == 0 {
			// An insert takes the first empty slot of its probe
			// sequence, so an empty slot proves the pattern is absent.
			return 0, false
		}
		if e>>2 == pattern {
			return e >> 1 & 1, true
		}
	}
	return 0, false
}

// store caches the flip parity of the defect pattern. Hitting the entry
// cap of a full-size table or exhausting the probe budget just skips
// the insert — correctness never depends on a store landing. h must be
// memoHash(pattern).
func (m *parityMemo) store(h, pattern, parity uint64) {
	t := m.table.Load()
	if t == nil || (t.size.Load() >= t.entryCap() && len(t.slots) < m.maxSlots) {
		t = m.grow(t)
	}
	if t.size.Load() < t.entryCap() {
		t.insert(h, memoEntry(pattern, parity))
	}
}

// grow replaces the table the caller found full (or absent) by the next
// size up, carrying the entries over, and returns the current table.
// Readers keep using the old table until the swap; an insert that lands
// in the old table after its slot was carried over is lost, which costs
// that pattern one more decode and nothing else.
func (m *parityMemo) grow(old *memoTable) *memoTable {
	m.growMu.Lock()
	defer m.growMu.Unlock()
	if cur := m.table.Load(); cur != old {
		return cur // another goroutine grew it first
	}
	nslots := min(1<<memoMinSlotBits, m.maxSlots)
	if old != nil {
		nslots = min(len(old.slots)<<memoGrowShift, m.maxSlots)
	}
	t := &memoTable{slots: make([]atomic.Uint64, nslots)}
	if old != nil {
		for i := range old.slots {
			if e := old.slots[i].Load(); e != 0 {
				t.insert(memoHash(e>>2), e)
			}
		}
	}
	m.table.Store(t)
	return t
}

// insert puts entry e in the first empty slot of its pattern's probe
// sequence. A slot that holds the pattern already, written by this
// call's rival or an earlier one, ends the probe: one pattern never
// occupies two slots, because every writer of it walks the same
// sequence and the first empty slot there is taken exactly once.
func (t *memoTable) insert(h, e uint64) {
	mask := uint64(len(t.slots) - 1)
	for i := uint64(0); i < min(memoProbeCap, uint64(len(t.slots))); i++ {
		s := &t.slots[(h+i)&mask]
		cur := s.Load()
		if cur == 0 {
			if s.CompareAndSwap(0, e) {
				t.size.Add(1)
				return
			}
			cur = s.Load() // a rival took the slot first
		}
		if cur>>2 == e>>2 {
			return // already cached
		}
	}
}
