package qec

import (
	"testing"
	"testing/quick"

	"radqec/internal/inject"
	"radqec/internal/noise"
	"radqec/internal/rng"
)

func TestUnionFindCleanDecode(t *testing.T) {
	codes := []*Code{
		mustRep(t, 3), mustRep(t, 7), mustRep(t, 15),
		mustXXZZ(t, 3, 3), mustXXZZ(t, 3, 5), mustXXZZ(t, 1, 3),
	}
	for _, c := range codes {
		for seed := uint64(0); seed < 10; seed++ {
			bits := cleanRun(t, c, seed)
			if got := c.decodeLane(bits, c.ufMemo, ufParity); got != 1 {
				t.Fatalf("%s seed %d: union-find decoded %d, want 1", c.Name, seed, got)
			}
		}
	}
}

func TestUnionFindCorrectsSingleReadoutFlip(t *testing.T) {
	for _, c := range []*Code{mustRep(t, 7), mustXXZZ(t, 3, 3)} {
		base := cleanRun(t, c, 4)
		for d := 0; d < c.Data.Size; d++ {
			bits := append([]int(nil), base...)
			bits[c.DataRead.Start+d] ^= 1
			if got := c.decodeLane(bits, c.ufMemo, ufParity); got != 1 {
				t.Fatalf("%s: union-find missed single flip at data %d", c.Name, d)
			}
		}
	}
}

func TestUnionFindCorrectsEarlyError(t *testing.T) {
	c := mustRep(t, 5)
	for d := 0; d < c.Data.Size; d++ {
		circ := c.Circ.Clone()
		// Prepend X on data d.
		pre := circ.Ops
		circ.Ops = nil
		circ.X(c.Data.Start + d)
		circ.Ops = append(circ.Ops, pre...)
		ex := inject.NewExecutor(circ, noise.Depolarizing{}, nil)
		bits := ex.Run(rng.New(3))
		if got := c.decodeLane(bits, c.ufMemo, ufParity); got != 1 {
			t.Fatalf("union-find missed early X on data %d", d)
		}
	}
}

func TestUnionFindMajorityFlipIsLogicalError(t *testing.T) {
	c := mustRep(t, 5)
	bits := cleanRun(t, c, 6)
	for d := 0; d < 5; d++ {
		bits[c.DataRead.Start+d] ^= 1
	}
	if got := c.decodeLane(bits, c.ufMemo, ufParity); got != 0 {
		t.Fatalf("union-find decoded all-flip as %d, want 0", got)
	}
}

func TestUnionFindAlwaysReturnsValidBit(t *testing.T) {
	c := mustXXZZ(t, 3, 3)
	base := cleanRun(t, c, 1)
	prop := func(seed uint64) bool {
		src := rng.New(seed)
		bits := append([]int(nil), base...)
		for i := range bits {
			if src.Bool(0.35) {
				bits[i] ^= 1
			}
		}
		v := c.decodeLane(bits, c.ufMemo, ufParity)
		return v == 0 || v == 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestUnionFindMatchesMWPMOnLightNoise(t *testing.T) {
	// Under light depolarizing noise both decoders should reach the
	// expected logical value in the vast majority of shots; union-find
	// may give up a little accuracy but must stay within a few percent.
	c := mustXXZZ(t, 3, 3)
	ex := inject.NewExecutor(c.Circ, noise.NewDepolarizing(0.005), nil)
	const shots = 400
	mwpmErr, ufErr := 0, 0
	for s := uint64(0); s < shots; s++ {
		bits := ex.Run(rng.New(s))
		if c.Decode(bits) != 1 {
			mwpmErr++
		}
		if c.decodeLane(bits, c.ufMemo, ufParity) != 1 {
			ufErr++
		}
	}
	if ufErr > mwpmErr+shots/10 {
		t.Fatalf("union-find far worse than MWPM: %d vs %d errors", ufErr, mwpmErr)
	}
}

func TestSTGraphStructure(t *testing.T) {
	c := mustRep(t, 5)
	m := c.DEM()
	// 4 stabilizers x 3 layers + boundary.
	if m.Boundary != 12 {
		t.Fatalf("boundary id = %d", m.Boundary)
	}
	if len(m.Adj) != 13 {
		t.Fatalf("node count = %d", len(m.Adj))
	}
	// Spatial edges per layer: 3 internal (data 1..3 shared) + 2
	// boundary (data 0 and 4); temporal: 4 x 2.
	wantEdges := 3*(3+2) + 4*2
	if len(m.Edges) != wantEdges {
		t.Fatalf("edge count = %d, want %d", len(m.Edges), wantEdges)
	}
}

func TestMultiRoundCodes(t *testing.T) {
	for _, rounds := range []int{2, 3, 5} {
		c, err := NewRepetitionRounds(7, rounds)
		if err != nil {
			t.Fatal(err)
		}
		if c.Rounds != rounds || len(c.CRounds) != rounds {
			t.Fatalf("rounds bookkeeping wrong for %d", rounds)
		}
		for seed := uint64(0); seed < 10; seed++ {
			bits := cleanRun(t, c, seed)
			if got := c.Decode(bits); got != 1 {
				t.Fatalf("%d-round rep decoded %d", rounds, got)
			}
			if got := c.decodeLane(bits, c.ufMemo, ufParity); got != 1 {
				t.Fatalf("%d-round rep union-find decoded %d", rounds, got)
			}
		}
	}
	x, err := NewXXZZRounds(3, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < 10; seed++ {
		if got := x.Decode(cleanRun(t, x, seed)); got != 1 {
			t.Fatalf("4-round xxzz decoded %d", got)
		}
	}
}

func TestMultiRoundRejectsFewRounds(t *testing.T) {
	if _, err := NewRepetitionRounds(5, 1); err == nil {
		t.Fatal("1-round accepted")
	}
	if _, err := NewXXZZRounds(3, 3, 0); err == nil {
		t.Fatal("0-round accepted")
	}
}

func TestMultiRoundCorrectsMeasurementError(t *testing.T) {
	// Flip one syndrome bit in a middle round: a measurement error that
	// time-like matching must absorb without corrupting the output.
	c, err := NewRepetitionRounds(5, 4)
	if err != nil {
		t.Fatal(err)
	}
	base := cleanRun(t, c, 8)
	for r := 0; r < 4; r++ {
		for s := 0; s < c.NumZStabs(); s++ {
			bits := append([]int(nil), base...)
			bits[c.CRounds[r].Start+s] ^= 1
			if got := c.Decode(bits); got != 1 {
				t.Fatalf("measurement error round %d stab %d uncorrected", r, s)
			}
			if got := c.decodeLane(bits, c.ufMemo, ufParity); got != 1 {
				t.Fatalf("union-find: measurement error round %d stab %d uncorrected", r, s)
			}
		}
	}
}
