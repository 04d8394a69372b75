package qec

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"radqec/internal/matching"
	"radqec/internal/rng"
)

// bruteParitySet enumerates every defect-level solution of defects (each
// defect to its boundary or to one partner, no pruning) and returns the
// set of parities (bit p for parity p) its minimum-weight solutions reach.
func bruteParitySet(cd *compiledDEM, defects []defect) uint8 {
	m, nz := cd.m, cd.m.NumStabs
	best, set := int64(-1), uint8(0)
	used := make([]bool, len(defects))
	var walk func(cost int64, parity uint8)
	walk = func(cost int64, parity uint8) {
		i := slices.Index(used, false)
		if i < 0 {
			switch {
			case best < 0 || cost < best:
				best, set = cost, 1<<parity
			case cost == best:
				set |= 1 << parity
			}
			return
		}
		di := defects[i]
		used[i] = true
		if b := m.BoundaryDist(di.stab); b >= 0 {
			walk(cost+b, parity^cd.boundaryParity[di.stab])
		}
		for j := i + 1; j < len(defects); j++ {
			if used[j] {
				continue
			}
			dj := defects[j]
			if w := m.Dist(di.stab, di.round, dj.stab, dj.round); w >= 0 {
				used[j] = true
				walk(cost+w, parity^cd.pairParity[di.stab*nz+dj.stab])
				used[j] = false
			}
		}
		used[i] = false
	}
	walk(0, 0)
	return set
}

// largestRelevantComponent is the size of the largest component of
// defects over the pairs that can be in a minimum-weight solution: a
// pair is dropped when its two boundary matches are strictly cheaper.
func largestRelevantComponent(cd *compiledDEM, defects []defect) int {
	m := cd.m
	comp := make([]int, len(defects))
	for i := range comp {
		comp[i] = i
	}
	for i, di := range defects {
		for j := i + 1; j < len(defects); j++ {
			dj := defects[j]
			w := m.Dist(di.stab, di.round, dj.stab, dj.round)
			bi, bj := m.BoundaryDist(di.stab), m.BoundaryDist(dj.stab)
			if w < 0 || (bi >= 0 && bj >= 0 && w > bi+bj) {
				continue
			}
			from, to := comp[j], comp[i]
			for v := range comp {
				if comp[v] == from {
					comp[v] = to
				}
			}
		}
	}
	size := map[int]int{}
	largest := 0
	for _, c := range comp {
		size[c]++
		largest = max(largest, size[c])
	}
	return largest
}

// exactFuzzCodes caches the fuzz target's codes by (selector, rounds):
// building a circuit and compiling its DEM costs more than the check
// itself.
var exactFuzzCodes sync.Map

// exactFuzzCode builds code selector sel (0–3 rep d 3–9, 4 XXZZ (3,3),
// 5 XXZZ (5,3)) at rounds.
func exactFuzzCode(t *testing.T, sel, rounds int) *Code {
	key := fmt.Sprint(sel, rounds)
	if c, ok := exactFuzzCodes.Load(key); ok {
		return c.(*Code)
	}
	var (
		c   *Code
		err error
	)
	switch {
	case sel < 4:
		c, err = NewRepetitionRounds(3+2*sel, rounds)
	case sel == 5:
		c, err = NewXXZZRounds(5, 3, rounds)
	default:
		c, err = NewXXZZRounds(3, 3, rounds)
	}
	if err != nil {
		t.Fatal(err)
	}
	exactFuzzCodes.Store(key, c)
	return c
}

// checkExactParity draws a random defect list of up to 24 detectors on
// one code and holds the exact-parity tier to the blossom and to the
// tier's contract. It returns whether the tier answered.
func checkExactParity(t *testing.T, codeSel, roundSel, kSel uint8, seed uint64) bool {
	t.Helper()
	c := exactFuzzCode(t, int(codeSel%6), 2+int(roundSel%8))
	layers := c.Rounds + 1
	nbits := len(c.zStabData) * layers
	src := rng.New(seed)
	picked := make([]bool, nbits)
	for k := min(int(kSel%25), nbits); k > 0; {
		if b := src.Intn(nbits); !picked[b] {
			picked[b] = true
			k--
		}
	}
	// Stabilizer-major, layer-minor: the miss tier's defect order.
	var defects []defect
	for b, on := range picked {
		if on {
			defects = append(defects, defect{b / layers, b % layers})
		}
	}
	cd := c.compiled()
	buf := new(decodeBuf)
	got, ok := buf.exact.exactParity(cd, defects)
	want := c.flipParity(c.matchDefects(buf, defects, (*matching.Workspace).MinWeightPerfectMatching))
	if ok && got != want {
		t.Fatalf("%s rounds %d defects %v: exact parity %d, blossom %d",
			c.Name, c.Rounds, defects, got, want)
	}
	// Small enough to enumerate: the tier declines exactly the parity
	// ties and the syndromes with an oversized relevant component.
	if len(defects) <= exactCap+2 {
		set := bruteParitySet(cd, defects)
		mustAnswer := (set == 1 || set == 2) && largestRelevantComponent(cd, defects) <= exactCap
		if ok != mustAnswer {
			t.Fatalf("%s rounds %d defects %v: tier answered %v, minimum-weight parities %02b, largest relevant component %d",
				c.Name, c.Rounds, defects, ok, set, largestRelevantComponent(cd, defects))
		}
		if ok && uint8(1)<<got != set {
			t.Fatalf("%s rounds %d defects %v: exact parity %d, minimum-weight parities %02b",
				c.Name, c.Rounds, defects, got, set)
		}
	}
	return ok
}

// FuzzExactParityMatchesBlossom draws random defect lists (k ≤ 24) on rep
// d 3–9 and XXZZ (3,3)/(5,3) at rounds 2–9. Whenever the exact-parity
// tier answers, its parity must equal the blossom's correction parity;
// on lists small enough to enumerate it must answer exactly when every
// minimum-weight solution shares one parity and no relevant component
// exceeds exactCap.
func FuzzExactParityMatchesBlossom(f *testing.F) {
	// Every selector once, and a seventh pair that wraps to rep-3 at
	// rounds 8 and 9.
	for i := uint8(0); i < 7; i++ {
		f.Add(i, i, uint8(3*i+2), uint64(i))
		f.Add(i, i+1, uint8(exactCap+1+i%2), uint64(i)+7)
	}
	f.Fuzz(func(t *testing.T, codeSel, roundSel, kSel uint8, seed uint64) {
		checkExactParity(t, codeSel, roundSel, kSel, seed)
	})
}

// TestExactParityAnswersAndDeclines runs the fuzz target's check over a
// fixed spread of inputs and requires both outcomes to occur, so the
// target cannot pass by always declining.
func TestExactParityAnswersAndDeclines(t *testing.T) {
	answered, declined := 0, 0
	for i := 0; i < 700; i++ {
		if checkExactParity(t, uint8(i), uint8(i/7), uint8(i/49), uint64(i)) {
			answered++
		} else {
			declined++
		}
	}
	if answered < 100 || declined < 100 {
		t.Fatalf("%d answered, %d declined: want both at least 100", answered, declined)
	}
}

// TestExactParityDeclinesParityTies: on rep-(3,1), detectors (0,0) and
// (1,1) are resolved at equal cost by their diagonal pair (one space and
// one time mechanism, flipping data 1) and by two boundary matches
// (flipping data 0 and 2), and the two differ in logical parity. The
// tier must decline and leave the answer to the blossom; a lone defect
// next to it is answered exactly.
func TestExactParityDeclinesParityTies(t *testing.T) {
	c := mustRep(t, 3)
	cd := c.compiled()
	m := cd.m
	tie := []defect{{0, 0}, {1, 1}}
	if m.Dist(0, 0, 1, 1) != m.BoundaryDist(0)+m.BoundaryDist(1) ||
		cd.pairParity[0*m.NumStabs+1] == cd.boundaryParity[0]^cd.boundaryParity[1] {
		t.Fatal("premise: the pair and the two boundary matches should tie in cost and differ in parity")
	}
	var buf decodeBuf
	if p, ok := buf.exact.exactParity(cd, tie); ok {
		t.Fatalf("tier answered %d on a parity tie", p)
	}

	// The same syndrome as a shot record: round 0 sees stabilizer 0,
	// round 1 both stabilizers, and the data readout 010 repeats round 1.
	bits := make([]int, c.Circ.NumClbits)
	bits[c.C0.Start+0] = 1
	bits[c.C1.Start+0], bits[c.C1.Start+1] = 1, 1
	bits[c.DataRead.Start+1] = 1
	if ev := c.detectionEvents(nil, bits); !slices.Equal(ev, tie) {
		t.Fatalf("premise: record has detection events %v, want %v", ev, tie)
	}
	before := Counters()
	if got, want := c.Decode(bits), c.oracleDecode(bits); got != want {
		t.Fatalf("Decode = %d, blossom oracle %d", got, want)
	}
	if d := countersSince(before); d.MatcherCalls != 1 || d.ExactParity != 0 {
		t.Fatalf("after the tie: %d matcher calls, %d exact answers; want 1, 0", d.MatcherCalls, d.ExactParity)
	}

	// One readout flip on data 0: a lone boundary defect, answered.
	bits = make([]int, c.Circ.NumClbits)
	bits[c.DataRead.Start+0] = 1
	if got, want := c.Decode(bits), c.oracleDecode(bits); got != want {
		t.Fatalf("lone defect: Decode = %d, blossom oracle %d", got, want)
	}
	if d := countersSince(before); d.MatcherCalls != 2 || d.ExactParity != 1 {
		t.Fatalf("after the lone defect: %d matcher calls, %d exact answers; want 2, 1", d.MatcherCalls, d.ExactParity)
	}
}
