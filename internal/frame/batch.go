package frame

import (
	"math/bits"
	"sync"

	"radqec/internal/circuit"
	"radqec/internal/noise"
	"radqec/internal/rng"
)

// Tile geometry: a tile is up to MaxTileWords 64-lane words on the
// absolute word grid, i.e. up to 512 shot lanes sharing one pass over
// the op list. That amortises the per-op dispatch over the lanes; each
// word still draws from its own stream, so how words are grouped never
// changes a result (see BatchCampaign). The width is a constant, not an
// option: no workload ran faster on a narrower tile.
const (
	// MaxTileWords is the tile width in 64-lane words.
	MaxTileWords = 8
	// TileShots is a full tile's lane count — the batch alignment that
	// keeps policy batches tile-shaped.
	TileShots = MaxTileWords * 64
)

// BatchState is the reusable frame and record state of one shot tile:
// up to 64·w concurrent lanes stored as w-word qubit-major tiles.
type BatchState struct {
	// w is the current tile width in words — the stride of the planes.
	w int
	// nq and nc are the plane heights (qubits, clbits); capW is the
	// allocated tile capacity in words.
	nq, nc, capW int
	// x and z are frame bit-planes: x[q·w+k] holds the X frame bit of
	// qubit q for the 64 lanes of tile word k.
	x, z []uint64
	// radCur[c·w+k] is the gap cursor of the simulator's c-th strike
	// process in tile word k (lanes left before its next reset fault),
	// read only for processes on the gap arm. RunTile draws every one
	// of those afresh at tile start, so a recycled state carries nothing
	// over.
	radCur []int64
	// Rec is the packed classical record: Rec[c·w+k] holds classical
	// bit c of tile word k's 64 lanes.
	Rec []uint64
}

// NewTileState allocates lane state for tiles of up to w words.
func (s *BatchSimulator) NewTileState(w int) *BatchState {
	if w < 1 {
		w = 1
	}
	n := s.circ.NumQubits
	if n == 0 {
		n = 1
	}
	st := &BatchState{nq: n, nc: s.circ.NumClbits}
	st.grow(w)
	st.reshape(1)
	return st
}

// grow reallocates the backing planes for tiles of up to w words.
func (st *BatchState) grow(w int) {
	st.capW = w
	st.x = make([]uint64, st.nq*w)
	st.z = make([]uint64, st.nq*w)
	st.Rec = make([]uint64, st.nc*w)
}

// reshape sets the tile width (growing the planes if needed), reslices
// the views to stride w, and zeroes them for the next tile.
func (st *BatchState) reshape(w int) {
	if w > st.capW {
		st.grow(w)
	}
	st.w = w
	st.x = st.x[: st.nq*w : cap(st.x)]
	st.z = st.z[: st.nq*w : cap(st.z)]
	st.Rec = st.Rec[: st.nc*w : cap(st.Rec)]
	st.Clear()
}

// Width reports the current tile width in words.
func (st *BatchState) Width() int { return st.w }

// Record returns the packed classical bits of one register as a shared
// subslice of the full record — e.g. one stabilization round's syndrome
// words (a qec CRounds register), ready to be XOR-differenced against
// the neighbouring round word-parallel for detection-event extraction.
// At tile widths above one the subslice is the register's tile rows
// (stride Width words per clbit).
func (st *BatchState) Record(r circuit.Register) []uint64 {
	return st.Rec[r.Start*st.w : (r.Start+r.Size)*st.w]
}

// Clear zeroes the state for reuse.
func (st *BatchState) Clear() {
	for i := range st.x {
		st.x[i] = 0
		st.z[i] = 0
	}
	for i := range st.Rec {
		st.Rec[i] = 0
	}
}

// RunTile executes one tile of len(srcs) shot words (64·len(srcs)
// lanes, at most MaxTileWords words) into st, reshaping it to the tile
// width first. Every lane owns statistically independent noise. Tile
// word k draws all of its randomness from srcs[k], in an order that
// does not depend on len(srcs), so a w-word tile is bit-for-bit the w
// one-word tiles of the same streams: how many words share a pass —
// edge tiles run narrow — never changes results.
func (s *BatchSimulator) RunTile(srcs []*rng.Source, st *BatchState) {
	w := len(srcs)
	st.reshape(w)
	// siteBase[i] is the base index of op i's sites in the flattened
	// per-shot (op, qubit) stream (barriers contribute none).
	hasH, siteBase := s.comp.HasH, s.comp.SiteBase
	x, z := st.x, st.z
	if hasH {
		// State preparation is a collapse point: every lane of every
		// qubit draws its branch coin (see the package comment).
		for q := 0; q < st.nq; q++ {
			base := q * w
			for k := 0; k < w; k++ {
				z[base+k] = srcs[k].Uint64()
			}
		}
	}
	// Gap-arm processes start their cursors here, each tile word from
	// its own stream: the depolarizing cursor, then the strike
	// processes' in the order of s.strikes. depCur[k] counts the lanes
	// of the flattened (site, lane) bit-stream left before word k's next
	// depolarizing error.
	dep := &s.dep
	var depCur [MaxTileWords]int64
	if dep.Arm == noise.LaneGaps {
		for k := 0; k < w; k++ {
			depCur[k] = dep.Start(srcs[k])
		}
	}
	if n := len(s.strikes) * st.capW; len(st.radCur) < n {
		st.radCur = make([]int64, n)
	}
	radCur := st.radCur
	for c := range s.strikes {
		if lane := &s.strikes[c]; lane.Arm == noise.LaneGaps {
			for k := 0; k < w; k++ {
				radCur[c*w+k] = lane.Start(srcs[k])
			}
		}
	}
	for i, op := range s.circ.Ops {
		switch op.Kind {
		case circuit.KindH:
			q := op.Qubits[0] * w
			tileSwap(x[q:q+w], z[q:q+w])
		case circuit.KindS:
			// S: X -> Y (adds a Z component); Z unchanged.
			q := op.Qubits[0] * w
			tileXor(z[q:q+w], x[q:q+w])
		case circuit.KindX, circuit.KindY, circuit.KindZ:
			// Deterministic circuit Paulis are part of the reference.
		case circuit.KindCNOT:
			c, t := op.Qubits[0]*w, op.Qubits[1]*w
			tileXor(x[t:t+w], x[c:c+w])
			tileXor(z[c:c+w], z[t:t+w])
		case circuit.KindCZ:
			a, b := op.Qubits[0]*w, op.Qubits[1]*w
			tileXor(z[b:b+w], x[a:a+w])
			tileXor(z[a:a+w], x[b:b+w])
		case circuit.KindSWAP:
			a, b := op.Qubits[0]*w, op.Qubits[1]*w
			tileSwap(x[a:a+w], x[b:b+w])
			tileSwap(z[a:a+w], z[b:b+w])
		case circuit.KindMeasure:
			q := op.Qubits[0] * w
			mi := s.ref.MeasIndex[i]
			ref := uint64(0)
			if s.ref.Record[mi] == 1 {
				ref = ^uint64(0)
			}
			r := op.Clbit * w
			tileFillXor(st.Rec[r:r+w], x[q:q+w], ref)
			// Only a non-deterministic measurement collapses anything:
			// its deviation phase is replaced by fresh branch coins.
			// Measuring a Z eigenstate leaves the deviation untouched
			// (see the package comment).
			if hasH && !s.ref.Deterministic[mi] {
				for k := 0; k < w; k++ {
					z[q+k] = srcs[k].Uint64()
				}
			}
		case circuit.KindReset:
			q := op.Qubits[0] * w
			tileZero(x[q : q+w])
			tileZero(z[q : q+w])
			if hasH {
				for k := 0; k < w; k++ {
					z[q+k] = srcs[k].Uint64()
				}
			}
		case circuit.KindBarrier:
			continue
		}
		// Each tile word's stream sees this op's depolarizing errors,
		// then its radiation coins, whatever the tile width: the words'
		// streams are independent, so only the order within one matters.
		hasRad := s.fires[i]
		if dep.Arm == noise.LaneNever && !hasRad {
			continue
		}
		// Intrinsic depolarizing noise: iid Bernoulli(P) over every
		// (site, lane) bit, and a uniform 3-way type draw completes the
		// X/Y/Z at P/3 channel of the tableau engine.
		switch dep.Arm {
		case noise.LaneNever:
		case noise.LaneGaps:
			// One cursor runs through the whole flattened stream, and
			// each event draws its type before the gap to the next.
			for k := 0; k < w; k++ {
				src := srcs[k]
				c := depCur[k]
				for _, qq := range op.Qubits {
					q := qq*w + k
					for c < 64 {
						lane := uint(c)
						switch src.Intn(3) {
						case 0: // X
							x[q] ^= 1 << lane
						case 1: // Y
							x[q] ^= 1 << lane
							z[q] ^= 1 << lane
						default: // Z
							z[q] ^= 1 << lane
						}
						c += dep.Gap(src)
					}
					c -= 64
				}
				depCur[k] = c
			}
		default:
			// An error word per site (the dense arms keep no cursor),
			// then its Pauli types.
			for k := 0; k < w; k++ {
				for _, qq := range op.Qubits {
					q := qq*w + k
					xs, zs := noise.PauliWords(srcs[k], dep.Word(srcs[k], nil))
					x[q] ^= xs
					z[q] ^= zs
				}
			}
		}
		// Radiation reset faults, word-wide: the frame on fired lanes is
		// erased and its X bit set from the recorded reference Z-value;
		// superposed sites first inject the branch operator on a fair
		// per-lane coin (see the package comment for the physics).
		if !hasRad {
			continue
		}
		for j, qq := range op.Qubits {
			c := int(s.strike[qq])
			lane := &s.strikes[c]
			if lane.Arm == noise.LaneNever {
				continue
			}
			site := siteBase[i] + j
			refZ := s.refZ[site]
			for k := 0; k < w; k++ {
				src := srcs[k]
				q := qq*w + k
				fire := lane.Word(src, &radCur[c*w+k])
				if fire == 0 {
					continue
				}
				switch refZ {
				case -1: // reference holds |1>, actual pinned to |0>
					x[q] |= fire
					z[q] &^= fire
				case 1:
					x[q] &^= fire
					z[q] &^= fire
				case 0:
					coin := fire & src.Uint64()
					br := s.comp.Branch(site)
					for _, a := range br.Xs {
						x[a*w+k] ^= coin
					}
					for _, a := range br.Zs {
						z[a*w+k] ^= coin
					}
					x[q] &^= fire
					z[q] &^= fire
				}
				if hasH {
					z[q] |= fire & src.Uint64()
				}
			}
		}
	}
}

// TileDecodeFunc maps a w-word tile of packed classical records
// (rec[c·w+k] holds classical bit c of tile word k) to per-word decoded
// logical values: out[k] receives word k's decoded word, and only lanes
// set in live[k] carry meaningful records; a decoder may leave dead
// lanes arbitrary. qec.(*Code).DecodeTile, DecodeUnionFindTile and
// DecodeGreedyTile are the implementations, and both engines decode
// through them: BatchCampaign hands them tiles of up to MaxTileWords
// words, the tableau engine (package inject) one-word tiles.
type TileDecodeFunc func(rec []uint64, w int, live, out []uint64)

// batchSplitSalt decorrelates the batched engine's word streams from the
// tableau engine's per-shot streams derived from the same campaign seed.
const batchSplitSalt = 0xb5ad4eceda1ce2a9

// BatchCampaign estimates logical error rates with the bit-parallel
// engine. It honours the sweep.BatchRunner determinism contract at word
// granularity: shot i always lives in lane i%64 of word i/64, and word w
// always consumes the stream split(seed, salt^w), so results are
// invariant under how a range is split into calls (word-straddling
// batches re-run the word with disjoint live masks and merge exactly; a
// tile is just up to MaxTileWords words sharing one kernel pass, each
// still on its own word stream, grouped on the absolute word grid).
// The engine defines its own seed-to-stream mapping: rates are
// statistically equivalent to, but not bit-identical with, the tableau
// engine at the same seed.
type BatchCampaign struct {
	// Sim samples the shot words.
	Sim *BatchSimulator
	// DecodeTile maps packed record tiles to decoded logical words,
	// e.g. qec.(*Code).DecodeTile. Required.
	DecodeTile TileDecodeFunc
	// Expected is the fault-free decoded output.
	Expected int
	// states recycles tile states across RunFrom calls, so a campaign
	// advanced chunk by chunk (the sweep engine's shape) pays its state
	// allocation once, not once per chunk, and concurrent RunFrom calls
	// each take their own. It is a plain free list, not a sync.Pool: the
	// runtime keeps every used Pool on a global list for two more GC
	// cycles, and a Pool embedded here pins
	// its whole campaign (simulator, program, tile states) with it — a
	// sweep of thousands of short points, or a daemon building 160
	// campaigns per request, then carries cycles' worth of finished
	// campaigns as live heap, how much depending on when the GC ran.
	stateMu sync.Mutex
	states  []*BatchState
}

// getState hands a RunFrom call a recycled tile state, or a fresh one.
func (c *BatchCampaign) getState() *BatchState {
	var st *BatchState
	c.stateMu.Lock()
	if n := len(c.states); n > 0 {
		st, c.states[n-1] = c.states[n-1], nil
		c.states = c.states[:n-1]
	}
	c.stateMu.Unlock()
	if st == nil {
		st = c.Sim.NewTileState(MaxTileWords)
	}
	return st
}

// putState returns a call's tile state for the next RunFrom call.
func (c *BatchCampaign) putState(st *BatchState) {
	c.stateMu.Lock()
	c.states = append(c.states, st)
	c.stateMu.Unlock()
}

// RunFrom executes the shot range [start, start+shots) on the calling
// goroutine and returns how many shots ran and how many decoded wrong.
// Partitioning a campaign into ranges — word-aligned or not — merges to
// exactly the counts of one call over the whole range, so concurrent
// calls on disjoint ranges (core.NewEngineRunner's fan-out) sum to it
// too.
func (c *BatchCampaign) RunFrom(seed uint64, start, shots int) (int, int) {
	if c.DecodeTile == nil {
		panic("frame: BatchCampaign.DecodeTile is nil")
	}
	if shots <= 0 {
		return 0, 0
	}
	const tw = MaxTileWords
	firstWord := start >> 6
	lastWord := (start + shots - 1) >> 6
	// Tiles sit on the absolute word grid, so a tile's word membership —
	// and therefore which words share a kernel pass — is independent of
	// the range being run; edge tiles simply run narrow.
	firstTile := firstWord / tw
	lastTile := lastWord / tw
	expected := uint64(0)
	if c.Expected&1 == 1 {
		expected = ^uint64(0)
	}
	master := rng.New(seed)
	st := c.getState()
	defer c.putState(st)
	// Per-word RNG streams are pooled: SplitInto re-derives each word's
	// stream into a fixed Source, so the steady-state loop allocates
	// nothing.
	var streams [MaxTileWords]rng.Source
	var srcs [MaxTileWords]*rng.Source
	for k := range srcs {
		srcs[k] = &streams[k]
	}
	var live, out [MaxTileWords]uint64
	errors := 0
	for tile := firstTile; tile <= lastTile; tile++ {
		w0 := max(tile*tw, firstWord)
		w1 := min(tile*tw+tw-1, lastWord)
		wc := w1 - w0 + 1
		for k := 0; k < wc; k++ {
			word := w0 + k
			lv := ^uint64(0)
			if word == firstWord {
				lv &= ^uint64(0) << uint(start&63)
			}
			if word == lastWord {
				endLane := uint((start + shots - 1) & 63)
				lv &= ^uint64(0) >> (63 - endLane)
			}
			live[k] = lv
			master.SplitInto(batchSplitSalt^uint64(word), &streams[k])
		}
		c.Sim.RunTile(srcs[:wc], st)
		c.DecodeTile(st.Rec, wc, live[:wc], out[:wc])
		for k := 0; k < wc; k++ {
			errors += bits.OnesCount64((out[k] ^ expected) & live[k])
		}
	}
	return shots, errors
}
