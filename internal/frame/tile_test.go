package frame

import (
	"math/bits"
	"runtime"
	"slices"
	"strings"
	"testing"
	"weak"

	"radqec/internal/arch"
	"radqec/internal/noise"
	"radqec/internal/qec"
	"radqec/internal/rng"
)

// tileCampaign builds a batched repetition-code campaign wired through
// the tile decoder (radiation strike plus depolarizing noise,
// frame-exact).
func tileCampaign(t testing.TB, d int, p float64) *BatchCampaign {
	t.Helper()
	code, err := qec.NewRepetition(d)
	if err != nil {
		t.Fatal(err)
	}
	return tileCampaignOf(t, code, p)
}

// tileCampaignOf is tileCampaign for a repetition code already built
// (at any number of rounds).
func tileCampaignOf(t testing.TB, code *qec.Code, p float64) *BatchCampaign {
	t.Helper()
	return tileCampaignAt(t, code, p, 1.0)
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
func tileCampaignAt(t testing.TB, code *qec.Code, p, root float64) *BatchCampaign {
	t.Helper()
	cols := (2*code.DZ + 4) / 5
	tr, err := arch.Transpile(code.Circ, arch.Mesh(5, cols))
	if err != nil {
		t.Fatal(err)
	}
	dist := tr.Topo.Graph.AllPairsShortestPaths()
	ev := noise.NewRadiationEvent(dist[2], root, true)
	return &BatchCampaign{
		Sim:        NewBatch(tr.Circuit, noise.NewDepolarizing(p), ev, 3),
		DecodeTile: code.DecodeTile,
		Expected:   code.ExpectedLogical(),
	}
}

// TestTileWidthResultsInvariant pins the kernel's determinism contract:
// how many words share a RunTile pass is pure mechanism. For every tile
// width an edge tile can take, each word's record rows equal the
// one-word run of the same stream — in every arm of the regime rule (a
// gap cursor indexed or started by anything but its own word would give
// each width its own records).
func TestTileWidthResultsInvariant(t *testing.T) {
	code, err := qec.NewRepetition(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range noiseRegimes {
		sim := tileCampaignAt(t, code, r.p, r.root).Sim
		for seed := uint64(11); seed < 15; seed++ {
			stream := func(word int) *rng.Source {
				src := new(rng.Source)
				rng.New(seed).SplitInto(batchSplitSalt^uint64(word), src)
				return src
			}
			var ref [MaxTileWords][]uint64
			for k := range ref {
				st := sim.NewTileState(1)
				runOne(sim, stream(k), st)
				ref[k] = st.Rec
			}
			if slices.Equal(ref[0], ref[1]) {
				t.Fatalf("%s: words 0 and 1 sampled the same record; the streams carry no noise", r.name)
			}
			for _, w := range []int{1, 3, 4, MaxTileWords} {
				srcs := make([]*rng.Source, w)
				for k := range srcs {
					srcs[k] = stream(k)
				}
				st := sim.NewTileState(w)
				sim.RunTile(srcs, st)
				for i, got := range st.Rec {
					if c, k := i/w, i%w; got != ref[k][c] {
						t.Fatalf("%s, seed %d, %d-word tile: clbit %d of word %d is %x, one-word run %x",
							r.name, seed, w, c, k, got, ref[k][c])
					}
				}
			}
		}
	}
}

// TestTileRunFromSplitsMerge: partitioning a campaign into RunFrom
// ranges — mid-word, word-aligned, mid-tile and tile-aligned cuts —
// merges to exactly the uninterrupted Run. This is the resume contract
// the sweep engine's checkpointing relies on.
func TestTileRunFromSplitsMerge(t *testing.T) {
	const seed, shots = 17, 1337
	c := tileCampaign(t, 5, 0.01)
	ref := c.Run(seed, shots)
	for _, cut := range []int{1, 63, 64, 100, 512, 600, 1024, 1336} {
		a := c.RunFrom(seed, 0, cut)
		b := c.RunFrom(seed, cut, shots-cut)
		got := Result{Shots: a.Shots + b.Shots, Errors: a.Errors + b.Errors}
		if got != ref {
			t.Errorf("cut %d: %+v, want %+v", cut, got, ref)
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
		c := tileCampaignAt(t, code, r.p, r.root)
		whole := c.Run(seed, 10000)
		if whole.Errors < 10 {
			t.Fatalf("%s: whole run %+v saw too few errors to tell runs apart", r.name, whole)
		}
		a, b := c.RunFrom(seed, 0, 1000), c.RunFrom(seed, 1000, 9000)
		if got := (Result{Shots: a.Shots + b.Shots, Errors: a.Errors + b.Errors}); got != whole {
			t.Errorf("%s: halves merge to %+v, whole run %+v", r.name, got, whole)
		}
	}
}

// TestBatchCampaignRequiresDecodeTile: a campaign built without its
// decoder fails at the call that would use it, naming the field.
func TestBatchCampaignRequiresDecodeTile(t *testing.T) {
	c := tileCampaign(t, 5, 0.01)
	c.DecodeTile = nil
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "DecodeTile") {
			t.Fatalf("Run with nil DecodeTile: recovered %q, want a panic naming DecodeTile", msg)
		}
	}()
	c.Run(1, 64)
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
	a := tileCampaignAt(t, code, 0.01, sparseRoot).Sim
	b := tileCampaignAt(t, code, 0.02, sparseRoot/2).Sim
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
// not allocate. The same guard covers a one-word edge tile, which
// shares the machinery.
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
		tile, _ := tilePass(tileCampaignAt(t, code, r.p, r.root), 29)
		tile()
		if n := testing.AllocsPerRun(50, tile); n > 0 {
			t.Errorf("%s: steady-state tile pass allocates %.1f times per run, want 0", r.name, n)
		}
	}
	c := tileCampaign(t, 5, 0.01)
	tile, p := tilePass(c, 29)
	tile() // warm: pooled scratch grown, memo populated for these streams
	if n := testing.AllocsPerRun(50, tile); n > 0 {
		t.Errorf("steady-state tile pass allocates %.1f times per run, want 0", n)
	}

	word := func() {
		p.master.SplitInto(batchSplitSalt^uint64(1), &p.streams[0])
		runOne(c.Sim, &p.streams[0], p.st)
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
	c := tileCampaign(t, 5, 0.01)
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
	tile, p := tilePass(tileCampaignOf(t, code, 0.01), 31)
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
