package qec

import (
	mathbits "math/bits"
	"sync"
	"sync/atomic"

	"radqec/internal/matching"
)

// DecodeTile is the word-parallel counterpart of Decode over a w-word
// tile of packed records: rec[c·w+k] holds classical bit c of the 64
// concurrent shots ("lanes") of tile word k, live[k] masks word k's
// live lanes, and out[k] receives the decoded logical value of each of
// its lanes. Only live lanes are decoded; dead lanes of the result
// carry the uncorrected logical parity.
//
// Three tiers keep the decoder off the hot path:
//
//  1. Detection events are extracted word-parallel — one XOR chain per
//     Z stabilizer over the packed syndrome rounds plus the recomputed
//     final syndrome — and lanes whose space-time syndrome is entirely
//     zero exit early: with no defects MWPM matches nothing and the
//     decoded value is the uncorrected data-readout parity, already
//     computed for all 64 lanes with a handful of XORs.
//  2. Triggered lanes exploit that the correction only enters the
//     logical value through the parity of the matched flip set on the
//     logical support, a pure function of the defect pattern. When the
//     pattern fits in 62 bits (every figure code, and memory campaigns
//     out to stabs·(rounds+1) <= 62) the blossom result is memoised in
//     the code's one memo, a lock-free, allocation-free open-addressed
//     table of one-word entries, so repeated syndromes — the norm under
//     a localised strike — cost a probe instead of a matching.
//  3. Only novel syndromes reach the miss tier, on the defect list read
//     off the already-extracted defect words. It first tries the
//     exact-parity solver (exactparity.go): when every
//     minimum-weight correction over the compiled detector-error model
//     has the same logical parity, that parity is the blossom's
//     whatever its tie-break, and a subset DP over the defects finds it.
//     Only parity ties and oversized components run the blossom matcher.
//
// All three tiers run tile-wide and none of them allocates once the
// pooled scratch is warm: extraction and memo probes never did, and a
// miss solves its subsets or builds its defect graph and runs blossom
// inside the same pooled decodeBuf, then folds the matched chains'
// logical parities from the compiled tables.
//
// Decode is this function on a one-word tile with one live lane, so the
// two engines decode through one implementation: every lane of the
// result equals Decode of that lane's unpacked record, tie-broken
// matchings included.
func (c *Code) DecodeTile(rec []uint64, w int, live, out []uint64) {
	c.decodeTile(rec, w, live, out, c.memo, mwpmParity)
}

// DecodeUnionFindTile decodes with the union-find decoder instead of
// MWPM: the tile layout, detection-event extraction and fast path of
// DecodeTile, with the union-find grower/peeler in place of the blossom
// matcher on every triggered lane — a baseline keeps no memo, as a code
// too wide for a memo entry never does. Detection events, the
// detector-error model and the correction model are shared with
// DecodeTile, so accuracy differences isolate the matching strategy.
func (c *Code) DecodeUnionFindTile(rec []uint64, w int, live, out []uint64) {
	c.decodeTile(rec, w, live, out, nil, ufParity)
}

// DecodeGreedyTile is the ablation decoder: DecodeTile with greedy
// matching in place of blossom on every triggered lane, memo-less like
// DecodeUnionFindTile.
func (c *Code) DecodeGreedyTile(rec []uint64, w int, live, out []uint64) {
	c.decodeTile(rec, w, live, out, nil, greedyParity)
}

// parityOracle evaluates the flip parity of one defect pattern no memo
// answered, on the tile's scratch: decodeTile's miss tier. exact
// reports that the exact-parity tier answered, so no matcher ran.
type parityOracle func(c *Code, buf *decodeBuf, defects []defect) (parity uint64, exact bool)

// mwpmParity answers from the exact-parity tier when every
// minimum-weight correction shares one parity, and runs the blossom
// otherwise (see exactparity.go).
func mwpmParity(c *Code, buf *decodeBuf, defects []defect) (uint64, bool) {
	if p, ok := buf.exact.exactParity(c.compiled(), defects); ok {
		return p, true
	}
	return c.matchParity(buf, defects, (*matching.Workspace).MinWeightPerfectMatching), false
}

func greedyParity(c *Code, buf *decodeBuf, defects []defect) (uint64, bool) {
	return c.matchParity(buf, defects, (*matching.Workspace).GreedyPerfectMatching), false
}

func ufParity(c *Code, _ *decodeBuf, defects []defect) (uint64, bool) {
	return c.flipParity(ufDecode(c.DEM(), defects, c.Data.Size)), false
}

// flipParity folds a correction mask onto the logical support.
func (c *Code) flipParity(flips []bool) uint64 {
	var p uint64
	for _, d := range c.logicalZ {
		if flips[d] {
			p ^= 1
		}
	}
	return p
}

// DetectionEventWords extracts the word-parallel detection events of a
// packed record into dst (length NumZStabs·(Rounds+1), grown when
// needed): dst[s·layers+r] holds the layer-r detection bit of Z
// stabilizer s for all 64 lanes — round 0 XORed against the expected
// all-zero syndrome, consecutive rounds XOR-differenced, and the last
// round against the syndrome recomputed from the packed data readout.
// The second return value ORs every detection word (zero means no lane
// saw any defect). This is the extraction tier DecodeTile runs; it is
// exported so diagnostics and tests can observe detection events
// without decoding.
func (c *Code) DetectionEventWords(rec []uint64, dst []uint64) ([]uint64, uint64) {
	layers := len(c.CRounds) + 1
	nz := len(c.zStabData)
	if cap(dst) < nz*layers {
		dst = make([]uint64, nz*layers)
	}
	dst = dst[:nz*layers]
	var anyT [1]uint64
	c.detectionEventTile(rec, 1, dst, anyT[:])
	return dst, anyT[0]
}

// detectionEventTile fills dst[(s·layers+r)·w+k] with the layer-r
// detection word of Z stabilizer s for tile word k, and ORs word k's
// detection words into anyw[k].
func (c *Code) detectionEventTile(rec []uint64, w int, dst, anyw []uint64) {
	layers := len(c.CRounds) + 1
	for s, datas := range c.zStabData {
		row := s * layers
		for k := 0; k < w; k++ {
			prev := uint64(0)
			a := anyw[k]
			for r, creg := range c.CRounds {
				cur := rec[(creg.Start+s)*w+k]
				d := prev ^ cur
				dst[(row+r)*w+k] = d
				a |= d
				prev = cur
			}
			final := uint64(0)
			for _, dq := range datas {
				final ^= rec[(c.DataRead.Start+dq)*w+k]
			}
			d := prev ^ final
			dst[(row+layers-1)*w+k] = d
			anyw[k] = a | d
		}
	}
}

// laneKeys holds the memo keys of one tile word's 64 lanes, built at
// once: lane l's key carries bit l of detection word i at bit i, for
// i < nbits <= 64. The detection words are a bit matrix of nbits rows
// by 64 lanes; with b the smallest power of two >= nbits, transposing
// each of its b×b blocks in place (transposeBlocks) leaves lane l's key
// in the b bits of rows[l mod b] from bit l - l mod b up. For b = 64
// that is the plain 64×64 transpose and the key is rows[l]; the 12-bit
// patterns of the 2-round family need only the 16×16 blocks, a sixth
// of the work. The cost is per tile word, whatever the number of
// triggered lanes; a lane's key is then one shift and mask.
type laneKeys struct {
	rows [64]uint64
	// block is the block size b.
	block uint
}

// build fills the keys of tile word k of a w-word detection-event tile.
func (t *laneKeys) build(events []uint64, w, k, nbits int) {
	for i := 0; i < nbits; i++ {
		t.rows[i] = events[i*w+k]
	}
	b := uint(1) << mathbits.Len(uint(nbits-1))
	clear(t.rows[nbits:b])
	transposeBlocks(&t.rows, b)
	t.block = b
}

// key returns lane's memo key.
func (t *laneKeys) key(lane uint) uint64 {
	b := t.block
	return t.rows[lane&(b-1)&63] >> (lane &^ (b - 1)) & (1<<b - 1)
}

// transposeBlocks transposes the b×b blocks of the b×64 bit matrix
// a[:b] (b a power of two <= 64): for r, c < b and every multiple m of
// b, bit m+c of a[r] and bit m+r of a[c] trade places. Round j (a power
// of two) exchanges the j-bit of the row index with the j-bit of the
// column index; the six rounds commute and together are the full 64×64
// transpose (Hacker's Delight 7-3), and the rounds j < b alone are the
// block transpose.
func transposeBlocks(a *[64]uint64, b uint) {
	if b > 32 {
		transposeRound(a, b, 32, 0x00000000ffffffff)
	}
	if b > 16 {
		transposeRound(a, b, 16, 0x0000ffff0000ffff)
	}
	if b > 8 {
		transposeRound(a, b, 8, 0x00ff00ff00ff00ff)
	}
	if b > 4 {
		transposeRound(a, b, 4, 0x0f0f0f0f0f0f0f0f)
	}
	if b > 2 {
		transposeRound(a, b, 2, 0x3333333333333333)
	}
	if b > 1 {
		transposeRound(a, b, 1, 0x5555555555555555)
	}
}

// transposeRound is one round of transposeBlocks over rows a[:b]: for
// each of the b/2 rows k with bit j clear, the bits of a[k] whose
// position has bit j set swap with the bits of a[k|j] whose position
// has it clear (m marks the latter). Inlined with a constant j, every
// shift is an immediate; the &63 lets the compiler drop the bounds
// checks.
func transposeRound(a *[64]uint64, b, j uint, m uint64) {
	for n := uint(0); n < b/2; n++ {
		k := n&(j-1) | (n&^(j-1))<<1
		t := (a[k&63]>>j ^ a[(k|j)&63]) & m
		a[(k|j)&63] ^= t
		a[k&63] ^= t << j
	}
}

// decodeBuf is the pooled scratch of one decode: a scalar record packed
// into a one-word tile, the extracted detection-event tile, the per-word
// defect accumulator masks, the memo keys of one tile word's 64 lanes,
// the defect list of a lane that missed the memo, and everything
// resolving that list needs — the exact-parity solver's tables, the
// defect-graph edges, the blossom workspace and the correction mask.
// One pool serves every code and decoder — the slices grow to the
// largest decode seen and are reused verbatim. A buf holds no answers:
// every lookup goes to the code's shared parityMemo, so what a decode
// counts never depends on which buf it got.
type decodeBuf struct {
	lane    []uint64
	events  []uint64
	anyw    []uint64
	defects []defect

	exact exactBuf
	edges []matching.Edge
	ws    matching.Workspace

	keys laneKeys
}

var decodeBufPool = sync.Pool{New: func() any { return new(decodeBuf) }}

// grow returns b.events and b.anyw sized for an n-word event tile over
// w tile words, zeroing anyw (events are fully overwritten).
func (b *decodeBuf) grow(n, w int) (events, anyw []uint64) {
	if cap(b.events) < n {
		b.events = make([]uint64, n)
	}
	if cap(b.anyw) < w {
		b.anyw = make([]uint64, w)
	}
	b.events = b.events[:n]
	b.anyw = b.anyw[:w]
	for k := range b.anyw {
		b.anyw[k] = 0
	}
	return b.events, b.anyw
}

// decodeTile is the decoder-agnostic tile-parallel core every decoder
// runs: tiered extraction + memoisation around a flip-parity oracle
// evaluated only on novel defect patterns. A nil memo memoises nothing:
// the oracle runs on every triggered lane.
func (c *Code) decodeTile(rec []uint64, w int, live, out []uint64, memo *parityMemo,
	parityOf parityOracle) {
	buf := decodeBufPool.Get().(*decodeBuf)
	c.decodeTileWith(buf, rec, w, live, out, memo, parityOf)
	decodeBufPool.Put(buf)
}

// decodeLane decodes one unpacked shot record as the one live lane of a
// one-word tile: Decode, and the tests' scalar views of every decoder,
// are decodeTile with their memo (nil for the baselines).
func (c *Code) decodeLane(bits []int, memo *parityMemo, parityOf parityOracle) int {
	buf := decodeBufPool.Get().(*decodeBuf)
	rec := buf.lane[:0]
	for _, b := range bits {
		rec = append(rec, uint64(b&1))
	}
	buf.lane = rec
	live, out := [1]uint64{1}, [1]uint64{}
	c.decodeTileWith(buf, rec, 1, live[:], out[:], memo, parityOf)
	decodeBufPool.Put(buf)
	return int(out[0])
}

// decodeTileWith is decodeTile on the caller's scratch.
func (c *Code) decodeTileWith(buf *decodeBuf, rec []uint64, w int, live, out []uint64,
	memo *parityMemo, parityOf parityOracle) {
	layers := len(c.CRounds) + 1
	nz := len(c.zStabData)
	// Uncorrected logical parity of every lane: the fast-path answer.
	for k := 0; k < w; k++ {
		out[k] = 0
	}
	for _, d := range c.logicalZ {
		base := (c.DataRead.Start + d) * w
		for k := 0; k < w; k++ {
			out[k] ^= rec[base+k]
		}
	}
	if nz == 0 {
		return
	}
	defectWords, anyw := buf.grow(nz*layers*w, w)
	c.detectionEventTile(rec, w, defectWords, anyw)
	// A decoder without a memo, or a code whose pattern outgrows a memo
	// entry, decodes every triggered lane directly.
	nbits := c.detectorBits()
	cacheable := memo != nil && nbits <= memoKeyBits
	defects := buf.defects
	keys := &buf.keys
	var triggered, misses, matched, exacts int64
	for k := 0; k < w; k++ {
		slow := anyw[k] & live[k]
		if slow == 0 {
			continue
		}
		triggered += int64(mathbits.OnesCount64(slow))
		if cacheable {
			keys.build(defectWords, w, k, nbits)
		}
		for m := slow; m != 0; m &= m - 1 {
			lane := uint(mathbits.TrailingZeros64(m))
			mask := uint64(1) << lane
			var key, h uint64
			if cacheable {
				key = keys.key(lane)
				h = memoHash(key)
				if v, ok := memo.load(h, key); ok {
					out[k] ^= v << lane
					continue
				}
			}
			// Defects stabilizer-major, layer-minor: the matcher's input
			// order, which fixes its tie-breaks.
			defects = defects[:0]
			for s := 0; s < nz; s++ {
				for r := 0; r < layers; r++ {
					if defectWords[(s*layers+r)*w+k]&mask != 0 {
						defects = append(defects, defect{s, r})
					}
				}
			}
			misses++
			matched += int64(len(defects))
			flipParity, exact := parityOf(c, buf, defects)
			if exact {
				exacts++
			}
			if cacheable {
				memo.store(h, key, flipParity)
			}
			out[k] ^= flipParity << lane
		}
	}
	buf.defects = defects
	if triggered != 0 {
		counters.triggered.Add(triggered)
		counters.misses.Add(misses)
		counters.defects.Add(matched)
		counters.exact.Add(exacts)
	}
}

// DecoderCounters is the decoders' traffic in this process, every
// decoder, code and engine summed (both engines decode tiles): of the
// lanes that saw a defect, how many reached the miss tier instead of
// the memo, how many defects those matcher calls matched
// (MatchedDefects / MatcherCalls is the mean defect count k a call
// pays for), and what the memos hold. The union-find and greedy
// baselines, like a code whose pattern is too wide for a memo entry,
// count every triggered lane as a matcher call. ExactParity counts the
// MWPM miss-tier lanes the exact-parity tier answered without the
// blossom; they are included in MatcherCalls, so the blossom ran
// MatcherCalls − ExactParity times.
type DecoderCounters struct {
	TriggeredLanes int64
	MatcherCalls   int64
	MatchedDefects int64
	ExactParity    int64
	MemoEntries    int64
}

// counters are the process-wide decode-tier counters, added once per
// tile by decodeTile.
var counters struct{ triggered, misses, defects, exact atomic.Int64 }

// Counters reads the process-wide decode-tier counters. Safe while
// campaigns decode; the numbers are read one after another, not as one
// snapshot. MemoEntries is left 0: a memo lives and dies with its code,
// so only the holder of the codes can sum it (see Code.MemoEntries).
func Counters() DecoderCounters {
	return DecoderCounters{
		TriggeredLanes: counters.triggered.Load(),
		MatcherCalls:   counters.misses.Load(),
		MatchedDefects: counters.defects.Load(),
		ExactParity:    counters.exact.Load(),
	}
}

// MemoEntries reports how many syndromes the code's memo holds.
func (c *Code) MemoEntries() int64 { return c.memo.entries() }

// RawLogicalTile is the word-parallel RawLogical: the packed
// uncorrected ancilla readout of every lane; see DecodeTile for the
// tile layout.
func (c *Code) RawLogicalTile(rec []uint64, w int, live, out []uint64) {
	copy(out[:w], rec[c.AncRead.Start*w:c.AncRead.Start*w+w])
}
