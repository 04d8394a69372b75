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
	return tileCampaignAt(t, code, p, 1.0, width)
}

// sparseRoot is a root probability just under the regime rule's 1/32
// boundary: every struck qubit of the spreading strike is on the gap
// arm, with events as frequent as that arm sees them.
const sparseRoot = 0.03

// noiseRegimes are the (depolarizing rate, root strike probability)
// corners of the kernel's regime rule: the saturating strike with its
// word-arm neighbours over gap-arm intrinsic noise, the all-gap sparse
// strike, and dense intrinsic noise.
var noiseRegimes = []struct {
	name    string
	p, root float64
}{
	{"saturating strike", 0.01, 1.0},
	{"sparse strike", 0.01, sparseRoot},
	{"dense depolarizing", 0.1, sparseRoot},
}

// tileCampaignAt is tileCampaignOf with the strike's root probability
// chosen (it spreads from physical qubit 2).
func tileCampaignAt(t testing.TB, code *qec.Code, p, root float64, width int) *BatchCampaign {
	t.Helper()
	cols := (2*code.DZ + 4) / 5
	tr, err := arch.Transpile(code.Circ, arch.Mesh(5, cols))
	if err != nil {
		t.Fatal(err)
	}
	dist := tr.Topo.Graph.AllPairsShortestPaths()
	ev := noise.NewRadiationEvent(dist[2], root, true)
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
	code, err := qec.NewRepetition(5)
	if err != nil {
		t.Fatal(err)
	}
	// Every arm of the regime rule: a gap cursor indexed or started by
	// anything but its own word would give each width its own counts.
	const many = 16*TileShots + shots // enough for the sparse strike to show
	for _, r := range noiseRegimes {
		want := tileCampaignAt(t, code, r.p, r.root, 64).Run(seed, many)
		if want.Shots != many || want.Errors < 10 {
			t.Fatalf("%s: reference ran %+v, want %d shots and some errors", r.name, want, many)
		}
		for _, width := range TileWidths() {
			if got := tileCampaignAt(t, code, r.p, r.root, width).Run(seed, many); got != want {
				t.Errorf("%s, width %d: %+v, want %+v", r.name, width, got, want)
			}
		}
	}
	ref := tileCampaign(t, 5, 0.01, 64).Run(seed, shots)
	// Legacy per-word decoder under a wide width request: tileWords
	// clamps to one word and the results still match.
	legacy := tileCampaign(t, 5, 0.01, 512)
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
	// [0, 1000) + [1000, 10000) re-runs word 15 with disjoint live masks,
	// once as the last word of a wide tile and once as a narrow tile's
	// first: its cursors must start from its own stream alone.
	code, err := qec.NewRepetition(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range noiseRegimes {
		for _, width := range TileWidths() {
			c := tileCampaignAt(t, code, r.p, r.root, width)
			whole := c.Run(seed, 10000)
			a, b := c.RunFrom(seed, 0, 1000), c.RunFrom(seed, 1000, 9000)
			if got := (Result{Shots: a.Shots + b.Shots, Errors: a.Errors + b.Errors}); got != whole {
				t.Errorf("%s, width %d: halves merge to %+v, whole run %+v", r.name, width, got, whole)
			}
		}
	}
}

// TestRecycledStateCarriesNoCursor: a tile state handed from one tile
// to the next, or from one point's simulator to another's, starts every
// gap cursor afresh — tile B on a state that just ran tile A is bit for
// bit tile B on a new state.
func TestRecycledStateCarriesNoCursor(t *testing.T) {
	code, err := qec.NewRepetition(5)
	if err != nil {
		t.Fatal(err)
	}
	const tw = MaxTileWords
	run := func(sim *BatchSimulator, st *BatchState, firstWord int) {
		master := rng.New(23)
		var streams [tw]rng.Source
		var srcs [tw]*rng.Source
		for k := range srcs {
			srcs[k] = &streams[k]
			master.SplitInto(batchSplitSalt^uint64(firstWord+k), srcs[k])
		}
		sim.RunTile(srcs[:], st)
	}
	// Points A and B differ in every strike probability and in the
	// intrinsic rate.
	a := tileCampaignAt(t, code, 0.01, sparseRoot, TileShots).Sim
	b := tileCampaignAt(t, code, 0.02, sparseRoot/2, TileShots).Sim
	for _, c := range []struct {
		name  string
		first *BatchSimulator
		word  int
	}{
		{"previous tile", b, 0},
		{"previous point", a, tw},
	} {
		fresh, reused := b.NewTileState(tw), b.NewTileState(tw)
		run(c.first, reused, c.word)
		run(b, reused, tw)
		run(b, fresh, tw)
		for i := range fresh.Rec {
			if fresh.Rec[i] != reused.Rec[i] {
				t.Fatalf("%s: record word %d differs on a recycled state", c.name, i)
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
	if raceEnabled {
		// Every DecodeTile call takes its scratch from the pool; one
		// race run in ten dropped enough of them to read 1 alloc/run.
		t.Skip("sync.Pool is lossy under the race detector")
	}
	code, err := qec.NewRepetition(5)
	if err != nil {
		t.Fatal(err)
	}
	// The gap cursors live in the tile state, so no arm of the regime
	// rule allocates once the state has run one tile.
	for _, r := range noiseRegimes[1:] {
		tile, _ := tilePass(tileCampaignAt(t, code, r.p, r.root, TileShots), 29)
		tile()
		if n := testing.AllocsPerRun(50, tile); n > 0 {
			t.Errorf("%s: steady-state tile pass allocates %.1f times per run, want 0", r.name, n)
		}
	}
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
