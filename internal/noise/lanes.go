package noise

import (
	"math"

	"radqec/internal/rng"
)

// LaneArm names how a LaneSampler draws its events.
type LaneArm uint8

// The arms of the regime rule, in order of increasing probability.
const (
	// LaneNever: p <= 0, no event and no draw.
	LaneNever LaneArm = iota
	// LaneGaps: 0 < p < laneGapBoundary, events by geometric gaps.
	LaneGaps
	// LaneWord: laneGapBoundary <= p < 1, one rng.BernoulliWord per site.
	LaneWord
	// LaneAlways: p >= 1, every lane and no draw.
	LaneAlways
)

// laneGapBoundary is the probability below which a 64-lane word holds
// fewer than two expected events, where paying one GeometricSkip per
// event (and a compare-and-subtract per eventless word) beats the ~7.5
// RNG words rng.BernoulliWord costs whatever p is. Nobody is asked to
// tune it because the basin is flat: CPU ms per `-shots 40000 fig5`
// run with the boundary at 1/8, 1/16, 1/32, 1/64, 1/128 read 1189 /
// 869 / 910 / 876 / 948 (medians of five on the 2-core box, whose own
// spread is ±4%), and per `-shots 512 fig8` run 674 / 665 / 708 / 683 /
// 865. It is the batched counterpart of skipThreshold, which prices a
// scalar draw per site and so sits elsewhere.
//
// The word arm has since got cheaper (its draws stay in registers and
// its threshold is quantised once per sampler), which on its own would
// move the crossover down a little. The boundary is not re-tuned for
// it: the arm a probability falls in decides which draws its sites make,
// so moving 1/32 by any amount moves the stream of every point with a
// probability between the old and new boundary — every fig5 and fig8
// table and a fingerprintVersion bump — for a gain the flat basin above
// says is inside the box's noise.
const laneGapBoundary = 1.0 / 32

// LaneSampler is the batched twin of SkipSampler: it samples one
// Bernoulli(p) process over a stream of 64-lane site-words — every lane
// of every word fires independently with probability p — by the one
// rule, decided once from p, that both noise channels of the tile
// kernel share (see the LaneArm constants). What makes a process is its
// p alone: sites of different qubits that fire with one probability may
// be fed to one sampler in any fixed order. In the gap arm the process
// keeps a cursor, the number of lanes left before its next event; the
// caller owns the cursor (one per process per tile word), seeds it with
// Start and passes it back at every site.
type LaneSampler struct {
	// Arm is the regime p falls in.
	Arm LaneArm
	// param is 1/ln(1-p), cached for GeometricSkip, on the gap arm.
	param float64
	// thresh is rng.Threshold(p), the fixed-point threshold
	// rng.BernoulliWord compares against, on the word arm: quantised
	// once here rather than once per site-word.
	thresh uint64
}

// Lanes returns the sampler for event probability p.
func Lanes(p float64) LaneSampler {
	switch {
	case !(p > 0): // NaN never fires either
		return LaneSampler{Arm: LaneNever}
	case p >= 1:
		return LaneSampler{Arm: LaneAlways}
	case p < laneGapBoundary:
		return LaneSampler{Arm: LaneGaps, param: 1 / math.Log1p(-p)}
	default:
		return LaneSampler{Arm: LaneWord, thresh: rng.Threshold(p)}
	}
}

// Start draws a gap-arm process's first cursor: the lanes before its
// first event.
func (s *LaneSampler) Start(src *rng.Source) int64 {
	return GeometricSkip(src, s.param)
}

// Gap draws the distance from one gap-arm event to the next (at least
// one lane). Callers that must interleave their own per-event draws
// with the gaps — the depolarizing channel's Pauli type — walk the
// cursor with it directly:
//
//	for c < 64 { event at lane c; c += s.Gap(src) }; c -= 64
//
// which is what Word does for everyone else.
func (s *LaneSampler) Gap(src *rng.Source) int64 {
	return 1 + GeometricSkip(src, s.param)
}

// Word returns the fire mask of the process's next site-word. Only the
// gap arm reads or moves *cur; there, a word without an event costs a
// compare and a subtract and no randomness, and a word with events one
// GeometricSkip per event.
func (s *LaneSampler) Word(src *rng.Source, cur *int64) uint64 {
	if s.Arm == LaneGaps && *cur >= 64 {
		*cur -= 64
		return 0
	}
	return s.word(src, cur)
}

// word is Word past its inlined no-event exit.
func (s *LaneSampler) word(src *rng.Source, cur *int64) uint64 {
	switch s.Arm {
	case LaneNever:
		return 0
	case LaneAlways:
		return ^uint64(0)
	case LaneWord:
		return src.BernoulliWord(s.thresh)
	}
	var fire uint64
	c := *cur
	for c < 64 {
		fire |= 1 << uint(c)
		c += s.Gap(src)
	}
	*cur = c - 64
	return fire
}

// PauliWords draws the Pauli type of every lane set in errs, uniform
// over X, Y and Z and independent across lanes, and returns the lanes
// whose X and whose Z frame bit flips (Y is both). It is the dense
// arm's counterpart of one Intn(3) per error: two random words a, b
// give every pending lane a uniform pair of bits, 01 → X, 10 → Z,
// 11 → Y, and the lanes that drew 00 are redrawn — exactly uniform, and
// since a round retires three pending lanes in four, about 2.7 words for
// the six errors of a p = 0.1 word. The rounds draw on a local copy of
// the generator state, stored back once.
func PauliWords(src *rng.Source, errs uint64) (xs, zs uint64) {
	st := *src
	for errs != 0 {
		var a, b uint64
		a, st = st.Next()
		b, st = st.Next()
		xs |= errs & b
		zs |= errs & a
		errs &^= a | b
	}
	*src = st
	return xs, zs
}
