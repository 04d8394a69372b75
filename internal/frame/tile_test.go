package frame

import (
	"math/bits"
	"runtime"
	"testing"
	"weak"

	"radqec/internal/arch"
	"radqec/internal/noise"
	"radqec/internal/qec"
	"radqec/internal/rng"
)

// tileCampaign builds a batched repetition-code campaign wired through
// the tile decoder at the given engine width (radiation strike plus
// depolarizing noise, frame-exact).
func tileCampaign(t testing.TB, d int, p float64, width int) *BatchCampaign {
	t.Helper()
	code, err := qec.NewRepetition(d)
	if err != nil {
		t.Fatal(err)
	}
	return tileCampaignOf(t, code, p, width)
}

// tileCampaignOf is tileCampaign for a repetition code already built
// (at any number of rounds).
func tileCampaignOf(t testing.TB, code *qec.Code, p float64, width int) *BatchCampaign {
	t.Helper()
	cols := (2*code.DZ + 4) / 5
	tr, err := arch.Transpile(code.Circ, arch.Mesh(5, cols))
	if err != nil {
		t.Fatal(err)
	}
	dist := tr.Topo.Graph.AllPairsShortestPaths()
	ev := noise.NewRadiationEvent(dist[2], 1.0, true)
	sim := New(tr.Circuit, noise.NewDepolarizing(p), ev, 3)
	return &BatchCampaign{
		Sim:        NewBatchSimulator(sim),
		DecodeTile: code.DecodeTile,
		Expected:   code.ExpectedLogical(),
		Width:      width,
	}
}

// TestTileWidthResultsInvariant pins the tentpole determinism contract:
// engine width is pure mechanism, so the same campaign produces the
// exact same Result at 64, 256 and 512 lanes — including shot counts
// that straddle word and tile boundaries, and the legacy per-word
// decoder path (which forces width one regardless of the request).
func TestTileWidthResultsInvariant(t *testing.T) {
	const seed, shots = 11, 1337 // 20 full words + 57 lanes; straddles tiles at every width
	ref := tileCampaign(t, 5, 0.01, 64).Run(seed, shots)
	if ref.Shots != shots {
		t.Fatalf("reference ran %d shots, want %d", ref.Shots, shots)
	}
	for _, width := range TileWidths() {
		if got := tileCampaign(t, 5, 0.01, width).Run(seed, shots); got != ref {
			t.Errorf("width %d: %+v, want %+v", width, got, ref)
		}
	}
	// Legacy per-word decoder under a wide width request: tileWords
	// clamps to one word and the results still match.
	legacy := tileCampaign(t, 5, 0.01, 512)
	code, err := qec.NewRepetition(5)
	if err != nil {
		t.Fatal(err)
	}
	legacy.DecodeTile = nil
	legacy.DecodeBatch = code.DecodeBatch
	if got := legacy.Run(seed, shots); got != ref {
		t.Errorf("legacy word decoder at width 512: %+v, want %+v", got, ref)
	}
}

// TestTileRunFromSplitsMerge: partitioning a campaign into RunFrom
// ranges — mid-word, word-aligned, mid-tile and tile-aligned cuts —
// merges to exactly the uninterrupted Run at every engine width. This
// is the resume contract the sweep engine's checkpointing relies on.
func TestTileRunFromSplitsMerge(t *testing.T) {
	const seed, shots = 17, 1337
	for _, width := range TileWidths() {
		c := tileCampaign(t, 5, 0.01, width)
		ref := c.Run(seed, shots)
		for _, cut := range []int{1, 63, 64, 100, 512, 600, 1024, 1336} {
			a := c.RunFrom(seed, 0, cut)
			b := c.RunFrom(seed, cut, shots-cut)
			got := Result{Shots: a.Shots + b.Shots, Errors: a.Errors + b.Errors}
			if got != ref {
				t.Errorf("width %d cut %d: %+v, want %+v", width, cut, got, ref)
			}
		}
	}
}

// tileScratch is everything one full-width tile pass of a campaign
// reuses: the tile state, the per-word streams and their master, the
// live masks and the decoded words.
type tileScratch struct {
	st        *BatchState
	streams   [MaxTileWords]rng.Source
	master    *rng.Source
	live, out [MaxTileWords]uint64
}

// tilePass returns a closure that runs one full-width tile of c —
// stream re-derivation, RunTile, DecodeTile — on scratch it reuses, so
// every call replays the same tile.
func tilePass(c *BatchCampaign, seed uint64) (func(), *tileScratch) {
	const tw = MaxTileWords
	p := &tileScratch{st: c.Sim.NewTileState(tw), master: rng.New(seed)}
	var srcs [MaxTileWords]*rng.Source
	for k := range srcs {
		srcs[k] = &p.streams[k]
		p.live[k] = ^uint64(0)
	}
	return func() {
		for k := 0; k < tw; k++ {
			p.master.SplitInto(batchSplitSalt^uint64(k), &p.streams[k])
		}
		c.Sim.RunTile(srcs[:tw], p.st)
		c.DecodeTile(p.st.Rec, tw, p.live[:tw], p.out[:tw])
	}, p
}

// TestTileSteadyStateZeroAlloc is the zero-allocation acceptance guard:
// once the per-worker state, RNG streams and syndrome memo are warm, a
// full tile pass — stream re-derivation, RunTile and DecodeTile — must
// not allocate. The same guard covers the width-one RunWord→DecodeBatch
// path, which shares the machinery.
func TestTileSteadyStateZeroAlloc(t *testing.T) {
	c := tileCampaign(t, 5, 0.01, TileShots)
	tile, p := tilePass(c, 29)
	tile() // warm: pooled scratch grown, memo populated for these streams
	if n := testing.AllocsPerRun(50, tile); n > 0 {
		t.Errorf("steady-state tile pass allocates %.1f times per run, want 0", n)
	}

	word := func() {
		p.master.SplitInto(batchSplitSalt^uint64(1), &p.streams[0])
		c.Sim.RunWord(&p.streams[0], p.st)
		c.DecodeTile(p.st.Rec, 1, p.live[:1], p.out[:1])
	}
	word()
	if n := testing.AllocsPerRun(50, word); n > 0 {
		t.Errorf("steady-state word pass allocates %.1f times per run, want 0", n)
	}
}

// TestCampaignCollectableAfterUse: a campaign that has run and been
// dropped must be garbage at the very next collection. Its recycled
// tile states used to sit in an embedded sync.Pool, which the runtime
// keeps on a global list for two more cycles — pinning the whole
// campaign through the interior pointer — so a sweep's or a daemon's
// live heap carried cycles' worth of finished campaigns.
func TestCampaignCollectableAfterUse(t *testing.T) {
	c := tileCampaign(t, 5, 0.01, TileShots)
	c.RunFrom(7, 0, 2*TileShots)
	c.RunFrom(7, 2*TileShots, TileShots) // reuses a recycled state
	gone := weak.Make(c)
	c = nil
	runtime.GC()
	if gone.Value() != nil {
		t.Fatal("a dropped campaign survived a collection")
	}
}

// TestTileMissTierZeroAlloc extends the guard past the memo boundary.
// Rep-(15,1) at 9 rounds has 140 detector bits, more than a memo key
// holds, so under a saturating strike every triggered lane of every
// tile builds its defect graph and runs blossom — and once the pooled
// scratch has seen one tile, that allocates nothing either. (The
// cacheable-code half, a memo swapped for an empty one before each
// tile, needs the memo in hand and sits in internal/qec.)
func TestTileMissTierZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is lossy under the race detector")
	}
	code, err := qec.NewRepetitionRounds(15, 9)
	if err != nil {
		t.Fatal(err)
	}
	tile, p := tilePass(tileCampaignOf(t, code, 0.01, TileShots), 31)
	tile() // warm: pooled scratch and blossom workspace grown
	word0 := make([]uint64, len(p.st.Rec)/MaxTileWords)
	for cb := range word0 {
		word0[cb] = p.st.Rec[cb*MaxTileWords]
	}
	if _, anyw := code.DetectionEventWords(word0, nil); bits.OnesCount64(anyw) < 32 {
		t.Fatalf("only %d of 64 lanes carry a syndrome; the strike does not saturate", bits.OnesCount64(anyw))
	}
	if n := testing.AllocsPerRun(5, tile); n > 0 {
		t.Errorf("miss-tier tile pass allocates %.1f times per run, want 0", n)
	}
}
