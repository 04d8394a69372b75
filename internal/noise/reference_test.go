package noise

import (
	"testing"

	"radqec/internal/rng"
)

// referencePauliWords is PauliWords as it stood before its rounds moved
// onto a register-resident copy of the generator state, kept verbatim
// as the frozen reference TestPauliWordsMatchesReference holds the
// stream to. It must not be edited: the dense depolarizing arm of every
// recorded table typed its errors with it.
func referencePauliWords(src *rng.Source, errs uint64) (xs, zs uint64) {
	for errs != 0 {
		a, b := src.Uint64(), src.Uint64()
		xs |= errs & b
		zs |= errs & a
		errs &^= a | b
	}
	return xs, zs
}

// TestPauliWordsMatchesReference types error words of every density the
// kernel produces (the word arm's 1/32 up to saturated, plus empty and
// single-lane words) on both implementations, and after each word
// checks the next Uint64, so the stream position is pinned too.
func TestPauliWordsMatchesReference(t *testing.T) {
	masks := rng.New(77)
	for _, p := range []float64{0, 1.0 / 64, 1.0 / 32, 0.1, 0.5, 0.9, 1} {
		for seed := uint64(1); seed <= 8; seed++ {
			got, want := rng.New(seed), rng.New(seed)
			for i := 0; i < 200; i++ {
				errs := masks.BernoulliWord(rng.Threshold(p))
				if i%50 == 0 {
					errs = 1 << uint(i%64)
				}
				gx, gz := PauliWords(got, errs)
				wx, wz := referencePauliWords(want, errs)
				if gx != wx || gz != wz {
					t.Fatalf("p=%v seed %d word %d (errs %#x): xs %#x zs %#x, reference %#x %#x", p, seed, i, errs, gx, gz, wx, wz)
				}
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("p=%v seed %d word %d: the stream reads %#x after typing, reference %#x", p, seed, i, g, w)
				}
			}
		}
	}
}

// TestLaneWordArmMatchesBernoulliWord: the word arm quantises p once, in
// Lanes, and must draw exactly the words and stream that quantising p
// at every word does (rng's own tests hold that to the frozen loop).
func TestLaneWordArmMatchesBernoulliWord(t *testing.T) {
	for _, p := range []float64{laneGapBoundary, 0.1, 1.0 / 3, 0.5, 0.999} {
		s := Lanes(p)
		if s.Arm != LaneWord {
			t.Fatalf("p=%v: arm %d, want the word arm", p, s.Arm)
		}
		got, want := rng.New(9), rng.New(9)
		for i := 0; i < 500; i++ {
			if g, w := s.Word(got, nil), want.BernoulliWord(rng.Threshold(p)); g != w {
				t.Fatalf("p=%v word %d: %#x, BernoulliWord %#x", p, i, g, w)
			}
		}
		if got.Uint64() != want.Uint64() {
			t.Fatalf("p=%v: the streams parted", p)
		}
	}
}
