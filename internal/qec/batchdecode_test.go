package qec

import (
	"fmt"
	mathbits "math/bits"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"radqec/internal/rng"
)

// randomRecord fills a packed 64-lane record with uniform random bits —
// far denser syndromes than any physical campaign, which stresses the
// slow path and the memo.
func randomRecord(t *testing.T, c *Code, src *rng.Source) []uint64 {
	t.Helper()
	rec := make([]uint64, c.Circ.NumClbits)
	for i := range rec {
		rec[i] = src.Uint64()
	}
	return rec
}

// unpackLane extracts one lane's scalar record.
func unpackLane(rec []uint64, lane uint) []int {
	bits := make([]int, len(rec))
	for i, w := range rec {
		bits[i] = int(w>>lane) & 1
	}
	return bits
}

// decodeOne reads DecodeTile, DecodeUnionFindTile or RawLogicalTile
// through a one-word (w = 1) tile.
func decodeOne(dec func(rec []uint64, w int, live, out []uint64), rec []uint64, live uint64) uint64 {
	var out [1]uint64
	dec(rec, 1, []uint64{live}, out[:])
	return out[0]
}

func checkDecodeTileMatches(t *testing.T, c *Code, words int, seed uint64) {
	t.Helper()
	src := rng.New(seed)
	for w := 0; w < words; w++ {
		rec := randomRecord(t, c, src)
		got := decodeOne(c.DecodeTile, rec, ^uint64(0))
		for lane := uint(0); lane < 64; lane++ {
			want := c.oracleDecode(unpackLane(rec, lane))
			if int((got>>lane)&1) != want {
				t.Fatalf("word %d lane %d: DecodeTile %d, oracle %d", w, lane, (got>>lane)&1, want)
			}
		}
	}
}

func TestDecodeBatchMatchesDecodeRepetition(t *testing.T) {
	c, err := NewRepetition(5)
	if err != nil {
		t.Fatal(err)
	}
	checkDecodeTileMatches(t, c, 6, 11)
	if c.batchMemoEntries() == 0 {
		t.Fatal("dense random syndromes never populated the memo")
	}
	// A second pass over fresh random records decodes through the warm
	// memo; equality must still hold lane for lane.
	checkDecodeTileMatches(t, c, 6, 12)
}

func TestDecodeBatchMatchesDecodeXXZZ(t *testing.T) {
	c, err := NewXXZZ(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	checkDecodeTileMatches(t, c, 4, 21)
}

func TestDecodeBatchMatchesDecodeManyRounds(t *testing.T) {
	// 14 stabilizers x 7 layers = 98 defect bits: past a one-word memo
	// entry, so every triggered lane decodes directly and the memo stays
	// empty.
	c, err := NewRepetitionRounds(15, 6)
	if err != nil {
		t.Fatal(err)
	}
	checkDecodeTileMatches(t, c, 2, 31)
	if c.batchMemoEntries() != 0 {
		t.Fatal("98-bit defect patterns populated the memo")
	}
}

func TestDecodeBatchMatchesDecodeUncacheableRounds(t *testing.T) {
	// 14 stabilizers x 10 layers = 140 defect bits: far past a memo
	// entry, exercising the uncached fallback.
	c, err := NewRepetitionRounds(15, 9)
	if err != nil {
		t.Fatal(err)
	}
	checkDecodeTileMatches(t, c, 1, 37)
	if c.batchMemoEntries() != 0 {
		t.Fatal("uncacheable code populated the memo")
	}
}

func TestUnionFindBatchMatchesScalarManyRounds(t *testing.T) {
	// Multi-round lane equality for the union-find twin, through the
	// memo (5-round rep-9: 8 stabs x 6 layers = 48 bits) and
	// past it (uncached xxzz case below is covered by the MWPM test's
	// shared core).
	c, err := NewRepetitionRounds(9, 5)
	if err != nil {
		t.Fatal(err)
	}
	checkUnionFindTileMatches(t, c, 2, 41)
	x, err := NewXXZZRounds(3, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkUnionFindTileMatches(t, x, 2, 43)
}

func TestDecodeBatchZeroSyndromeFastPath(t *testing.T) {
	// A fault-free record (all-zero syndromes, data readout = logical
	// |1>) must decode to all-ones without consulting the matcher.
	c, err := NewRepetition(7)
	if err != nil {
		t.Fatal(err)
	}
	rec := make([]uint64, c.Circ.NumClbits)
	for d := 0; d < c.Data.Size; d++ {
		rec[c.DataRead.Start+d] = ^uint64(0)
	}
	before := c.batchMemoEntries()
	if got := decodeOne(c.DecodeTile, rec, ^uint64(0)); got != ^uint64(0) {
		t.Fatalf("clean record decoded to %x", got)
	}
	if c.batchMemoEntries() != before {
		t.Fatal("fast path touched the memo")
	}
}

func TestDecodeBatchRespectsLiveMask(t *testing.T) {
	// Dead lanes must not cost matcher work: a record whose only
	// non-zero syndrome sits in a dead lane takes the fast path.
	c, err := NewRepetition(5)
	if err != nil {
		t.Fatal(err)
	}
	rec := make([]uint64, c.Circ.NumClbits)
	rec[c.C0.Start] = 1 << 63 // defect in lane 63 only
	live := uint64(1)<<63 - 1 // lanes 0..62
	got := decodeOne(c.DecodeTile, rec, live)
	for lane := uint(0); lane < 63; lane++ {
		want := c.oracleDecode(unpackLane(rec, lane))
		if int((got>>lane)&1) != want {
			t.Fatalf("live lane %d wrong", lane)
		}
	}
}

func TestRawLogicalBatch(t *testing.T) {
	c, err := NewRepetition(3)
	if err != nil {
		t.Fatal(err)
	}
	rec := make([]uint64, c.Circ.NumClbits)
	rec[c.AncRead.Start] = 0xdeadbeef
	if got := decodeOne(c.RawLogicalTile, rec, ^uint64(0)); got != 0xdeadbeef {
		t.Fatalf("RawLogicalTile = %x", got)
	}
}

func checkUnionFindTileMatches(t *testing.T, c *Code, words int, seed uint64) {
	t.Helper()
	src := rng.New(seed)
	for w := 0; w < words; w++ {
		rec := randomRecord(t, c, src)
		got := decodeOne(c.DecodeUnionFindTile, rec, ^uint64(0))
		for lane := uint(0); lane < 64; lane++ {
			want := c.oracleUnionFind(unpackLane(rec, lane))
			if int((got>>lane)&1) != want {
				t.Fatalf("word %d lane %d: DecodeUnionFindTile %d, oracle %d",
					w, lane, (got>>lane)&1, want)
			}
		}
	}
}

func TestDecodeUnionFindBatchMatchesScalarRepetition(t *testing.T) {
	c, err := NewRepetition(5)
	if err != nil {
		t.Fatal(err)
	}
	checkUnionFindTileMatches(t, c, 4, 11)
	if c.ufMemoEntries() == 0 {
		t.Fatal("dense random syndromes never populated the union-find memo")
	}
	// A second pass decodes through the warm memo; equality must hold.
	checkUnionFindTileMatches(t, c, 4, 12)
}

func TestDecodeUnionFindBatchMatchesScalarXXZZ(t *testing.T) {
	c, err := NewXXZZ(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	checkUnionFindTileMatches(t, c, 3, 21)
}

func TestDecoderMemosAreIndependent(t *testing.T) {
	// The decoders disagree on some syndromes; sharing a memo would
	// silently cross-contaminate them. Decode the same records with all
	// three and re-verify each against its oracle.
	c, err := NewXXZZ(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(31)
	for w := 0; w < 3; w++ {
		rec := randomRecord(t, c, src)
		mwpm := decodeOne(c.DecodeTile, rec, ^uint64(0))
		uf := decodeOne(c.DecodeUnionFindTile, rec, ^uint64(0))
		greedy := decodeOne(c.DecodeGreedyTile, rec, ^uint64(0))
		for lane := uint(0); lane < 64; lane++ {
			bits := unpackLane(rec, lane)
			if int((mwpm>>lane)&1) != c.oracleDecode(bits) {
				t.Fatalf("word %d lane %d: MWPM memo contaminated", w, lane)
			}
			if int((uf>>lane)&1) != c.oracleUnionFind(bits) {
				t.Fatalf("word %d lane %d: union-find memo contaminated", w, lane)
			}
			if int((greedy>>lane)&1) != c.oracleGreedy(bits) {
				t.Fatalf("word %d lane %d: greedy memo contaminated", w, lane)
			}
		}
	}
}

func BenchmarkDecodeUnionFindTileSpacetime(b *testing.B) {
	// Multi-round union-find decoding over the space-time DEM: rep-9 at
	// rounds=9 (the canonical rounds=d memory point), a full tile of
	// moderately dense random syndromes; its 80 detector bits are past a
	// memo entry, so every triggered lane runs the union-find. No bench/
	// layer runs this decoder; the MWPM twin is its qec.decode_* rows.
	c, err := NewRepetitionRounds(9, 9)
	if err != nil {
		b.Fatal(err)
	}
	const w = 8
	src := rng.New(13)
	rec := make([]uint64, c.Circ.NumClbits*w)
	for i := range rec {
		rec[i] = src.Uint64() & src.Uint64() & src.Uint64() // ~12.5% bit density
	}
	var live, out [w]uint64
	for k := range live {
		live[k] = ^uint64(0)
	}
	c.DEM() // compile outside the timed loop
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.DecodeUnionFindTile(rec, w, live[:], out[:])
	}
}

func BenchmarkDEMCompile(b *testing.B) {
	// One-time compile cost of a deep-memory model (amortised across a
	// whole campaign in practice; benched so it stays one-time-sized).
	for i := 0; i < b.N; i++ {
		c, err := NewRepetitionRounds(15, 15)
		if err != nil {
			b.Fatal(err)
		}
		c.DEM()
	}
}

// tileRecord packs a w-word tile (rec[c·w+k] = bit c of word k): even
// words carry uniform random bits, odd words sparse ones (one bit in
// eight), so both saturated and physical-looking syndromes are decoded.
func tileRecord(c *Code, w int, src *rng.Source) []uint64 {
	rec := make([]uint64, c.Circ.NumClbits*w)
	for i := range rec {
		rec[i] = src.Uint64()
		if (i%w)%2 == 1 {
			rec[i] &= src.Uint64() & src.Uint64()
		}
	}
	return rec
}

// TestDecodeTileMatchesScalarOnFigureCodes runs the tile decoder against
// the scalar oracle, lane for lane, on every code fig6 and the memory
// experiment build. Both match on the same pooled workspace, so the
// comparison also shows that neither leaves anything behind in it for
// the other: tile and oracle decodes of different sizes interleave.
func TestDecodeTileMatchesScalarOnFigureCodes(t *testing.T) {
	var codes []*Code
	add := func(c *Code, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		codes = append(codes, c)
	}
	for _, d := range RepetitionDistances() {
		add(NewRepetition(d))
	}
	for _, dd := range XXZZDistances() {
		add(NewXXZZ(dd[0], dd[1]))
	}
	for _, r := range []int{3, 4, 5, 6, 8} {
		add(NewRepetitionRounds(5, r))
		add(NewXXZZRounds(3, 3, r))
	}
	for _, r := range []int{3, 4, 6, 8, 9} {
		add(NewRepetitionRounds(9, r))
	}
	const w = 2
	live := []uint64{^uint64(0), ^uint64(0)}
	out := make([]uint64, w)
	bits := make([]int, 0, 256)
	for ci, c := range codes {
		rec := tileRecord(c, w, rng.New(uint64(100+ci)))
		c.DecodeTile(rec, w, live, out)
		for k := 0; k < w; k++ {
			for lane := uint(0); lane < 64; lane++ {
				bits = bits[:0]
				for cb := 0; cb < c.Circ.NumClbits; cb++ {
					bits = append(bits, int(rec[cb*w+k]>>lane)&1)
				}
				if got, want := int(out[k]>>lane)&1, c.oracleDecode(bits); got != want {
					t.Fatalf("%s rounds %d word %d lane %d: DecodeTile %d, oracle %d",
						c.Name, c.Rounds, k, lane, got, want)
				}
			}
		}
	}
}

// TestDecodeTileMissTierZeroAllocFreshMemo: a cacheable code whose memo
// is swapped for an empty one before every tile sends each pattern's
// first sighting through the matcher and the memo insert, and none of
// that may allocate once the pooled scratch has seen one tile. Growing
// a memo's table is the one allocation decoding keeps, so the empty
// memos here come with full-size tables. (The uncacheable-code half of
// this guard, where every triggered lane reaches the matcher, sits with
// the engine in internal/frame.)
func TestDecodeTileMissTierZeroAllocFreshMemo(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is lossy under the race detector")
	}
	c, err := NewXXZZ(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	const w, runs = 8, 20
	rec := tileRecord(c, w, rng.New(5))
	live := make([]uint64, w)
	for k := range live {
		live[k] = ^uint64(0)
	}
	out := make([]uint64, w)
	memos := make([]*parityMemo, runs+2)
	for i := range memos {
		m := newParityMemo(c.detectorBits())
		for tab := m.grow(nil); len(tab.slots) < m.maxSlots; {
			tab = m.grow(tab)
		}
		memos[i] = m
	}
	next := 0
	tile := func() {
		c.mwpmMemo = memos[next]
		next++
		c.DecodeTile(rec, w, live, out)
	}
	tile() // warm: pooled scratch and workspace grown
	if n := testing.AllocsPerRun(runs, tile); n != 0 {
		t.Fatalf("miss tier allocates %v times per tile on a fresh memo, want 0", n)
	}
	if got := memos[next-1].entries(); got < 100 {
		t.Fatalf("fresh memo holds %d entries after a tile; the miss tier did not run", got)
	}
}

// TestParityMemoGrowsWithContent: no table before the first insert, a
// ceiling from the code's detector bits, and growth in between that
// loses nothing — a small DEM's whole pattern space ends up cached.
func TestParityMemoGrowsWithContent(t *testing.T) {
	for _, tc := range []struct{ bits, maxSlots int }{{2, 8}, {12, 8192}, {14, 32768}, {24, 32768}} {
		if got := newParityMemo(tc.bits).maxSlots; got != tc.maxSlots {
			t.Errorf("%d detector bits: ceiling %d slots, want %d", tc.bits, got, tc.maxSlots)
		}
	}
	m := newParityMemo(12)
	if m.table.Load() != nil {
		t.Fatal("empty memo already holds a table")
	}
	m.store(memoHash(1), 1, 1)
	if got := len(m.table.Load().slots); got != 1<<memoMinSlotBits {
		t.Fatalf("first table has %d slots, want %d", got, 1<<memoMinSlotBits)
	}
	// Two passes, as decoding does it: a pattern whose insert ran out of
	// probes in a nearly full small table misses later and is stored
	// again.
	for pass := 0; pass < 2; pass++ {
		for k := uint64(0); k < 1<<12; k++ {
			m.store(memoHash(k), k, k&1)
		}
	}
	for k := uint64(0); k < 1<<12; k++ {
		if v, ok := m.load(memoHash(k), k); !ok || v != k&1 {
			t.Fatalf("pattern %#x: load = (%d, %v) after growth", k, v, ok)
		}
	}
	if got := len(m.table.Load().slots); got != m.maxSlots {
		t.Fatalf("table stopped at %d slots, ceiling %d", got, m.maxSlots)
	}
	if got := m.entries(); got != 1<<12 {
		t.Fatalf("%d entries for %d patterns", got, 1<<12)
	}
}

// TestParityMemoConcurrentGrowth hammers one memo from several
// goroutines while it grows from empty to its ceiling (run under
// -race): a load may miss, but it must never return a wrong parity,
// and the table must end up holding most of what was stored.
func TestParityMemoConcurrentGrowth(t *testing.T) {
	const workers, keys = 4, 20000
	m := newParityMemo(40)
	parityOf := func(k uint64) uint64 { return (k * 0x9e3779b97f4a7c15) >> 63 }
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src := rng.New(uint64(g))
			for i := 0; i < keys; i++ {
				// Keys spread over the whole 40-bit pattern space.
				k := uint64(src.Intn(keys)) * 0x9e3779b9 & (1<<40 - 1)
				h := memoHash(k)
				if v, ok := m.load(h, k); ok && v != parityOf(k) {
					t.Errorf("key %#x: cached parity %d, want %d", k, v, parityOf(k))
					return
				}
				m.store(h, k, parityOf(k))
			}
		}(g)
	}
	wg.Wait()
	if got := len(m.table.Load().slots); got != m.maxSlots {
		t.Fatalf("table at %d slots after %d distinct keys, ceiling %d", got, keys, m.maxSlots)
	}
	if got := m.entries(); got < keys/2 {
		t.Fatalf("only %d entries survived growth under contention", got)
	}
}

// TestParityMemoEntryRoundTrip: patterns as wide as an entry takes
// (bit memoKeyBits-1 set) come back from store, load and every grow with
// their parity, at both parities, and never alias the pattern that
// differs from them only in that bit.
func TestParityMemoEntryRoundTrip(t *testing.T) {
	const top = uint64(1) << (memoKeyBits - 1)
	patterns := []uint64{top | 5, top, 1<<memoKeyBits - 1, top | 0x2a5}
	parity := func(i int) uint64 { return uint64(i & 1) }
	m := newParityMemo(memoKeyBits)
	for i, p := range patterns {
		m.store(memoHash(p), p, parity(i))
	}
	check := func(when string) {
		t.Helper()
		for i, p := range patterns {
			if v, ok := m.load(memoHash(p), p); !ok || v != parity(i) {
				t.Fatalf("%s: pattern %#x: load = (%d, %v), want (%d, true)", when, p, v, ok, parity(i))
			}
			if _, ok := m.load(memoHash(p&^top), p&^top); ok {
				t.Fatalf("%s: pattern %#x answers for %#x", when, p, p&^top)
			}
		}
		if got := m.entries(); got != int64(len(patterns)) {
			t.Fatalf("%s: %d entries for %d patterns", when, got, len(patterns))
		}
	}
	check("stored")
	for tab := m.table.Load(); len(tab.slots) < m.maxSlots; {
		tab = m.grow(tab)
		check(fmt.Sprintf("grown to %d slots", len(tab.slots)))
	}
}

// TestParityMemoNoTableForWideCode decodes a tile under all three
// decoders on the codes either side of a memo entry's width. Both code
// families have an even number of Z stabilizers, so no code has 63
// detector bits: rep-3 at 30 rounds (2 x 31 = 62 bits) is the widest
// that fills its memos, rep-9 at 7 rounds (8 x 8 = 64) the narrowest
// that must decode every triggered lane directly and never allocate a
// memo table.
func TestParityMemoNoTableForWideCode(t *testing.T) {
	for _, tc := range []struct{ d, rounds, bits int }{{3, 30, memoKeyBits}, {9, 7, memoKeyBits + 2}} {
		c, err := NewRepetitionRounds(tc.d, tc.rounds)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.detectorBits(); got != tc.bits {
			t.Fatalf("%s rounds %d: %d detector bits, want %d", c.Name, tc.rounds, got, tc.bits)
		}
		cached := tc.bits <= memoKeyBits
		checkDecodeTileMatches(t, c, 1, uint64(tc.bits))
		const w = 2
		rec := tileRecord(c, w, rng.New(uint64(tc.bits)))
		live, out := []uint64{^uint64(0), ^uint64(0)}, make([]uint64, w)
		c.DecodeTile(rec, w, live, out)
		c.DecodeUnionFindTile(rec, w, live, out)
		c.DecodeGreedyTile(rec, w, live, out)
		for name, m := range map[string]*parityMemo{"mwpm": c.mwpmMemo, "uf": c.ufMemo, "greedy": c.greedyMemo} {
			if has := m.table.Load() != nil; has != cached {
				t.Errorf("%d-bit code: %s memo holds a table = %v, want %v", tc.bits, name, has, cached)
			}
		}
		if d := c.DecoderCounters(); !cached && d.MatcherCalls != d.TriggeredLanes {
			t.Fatalf("%d-bit code: %d matcher calls for %d triggered lanes, want every lane", tc.bits, d.MatcherCalls, d.TriggeredLanes)
		}
	}
}

// TestParityMemoOnePatternOneEntry races goroutines storing the same
// patterns (run under -race): four patterns forced onto one probe
// sequence, each stored by every goroutine in its own order. Each must
// end in exactly one slot, because a slot's first writer wins its CAS
// and a slot that holds the pattern ends every later probe for it.
func TestParityMemoOnePatternOneEntry(t *testing.T) {
	const workers, rounds = 16, 50
	patterns := []uint64{0x1234, 0xabcdef, 1<<memoKeyBits - 1, 7}
	const h = 42 // one hash for all four: they contend for the same slots
	m := newParityMemo(24)
	m.grow(nil) // a table up front: the race is over slots, not growth
	var start, wg sync.WaitGroup
	start.Add(1)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			start.Wait()
			for r := 0; r < rounds; r++ {
				for i := range patterns {
					p := patterns[(i+g)%len(patterns)]
					m.store(h, p, p&1)
				}
			}
		}(g)
	}
	start.Done()
	wg.Wait()
	seen := map[uint64]int{}
	tab := m.table.Load()
	for i := range tab.slots {
		if e := tab.slots[i].Load(); e != 0 {
			seen[e>>2]++
			if e != memoEntry(e>>2, e>>2&1) {
				t.Errorf("slot %d holds %#x, not a ready entry of its pattern", i, e)
			}
		}
	}
	for _, p := range patterns {
		if seen[p] != 1 {
			t.Errorf("pattern %#x in %d slots, want 1", p, seen[p])
		}
	}
	if len(seen) != len(patterns) || m.entries() != int64(len(patterns)) {
		t.Fatalf("%d patterns in %d entries, want %d", len(seen), m.entries(), len(patterns))
	}
}

// TestDecoderCountersSumMatchedDefects: MatchedDefects adds each matcher
// call's defect count — on a cacheable code the first sighting of each
// distinct syndrome, on one too wide for a memo key every triggered
// lane.
func TestDecoderCountersSumMatchedDefects(t *testing.T) {
	for _, tc := range []struct {
		d, rounds int
		cached    bool
	}{{5, 2, true}, {15, 9, false}} {
		c, err := NewRepetitionRounds(tc.d, tc.rounds)
		if err != nil {
			t.Fatal(err)
		}
		const w = 2
		rec := tileRecord(c, w, rng.New(uint64(tc.d)))
		out := make([]uint64, w)
		c.DecodeTile(rec, w, []uint64{^uint64(0), ^uint64(0)}, out)
		seen := map[string]bool{}
		var calls, defects int64
		bits := make([]int, c.Circ.NumClbits)
		for k := 0; k < w; k++ {
			for lane := uint(0); lane < 64; lane++ {
				for cb := range bits {
					bits[cb] = int(rec[cb*w+k]>>lane) & 1
				}
				ev := c.detectionEvents(nil, bits)
				if len(ev) == 0 {
					continue
				}
				if key := fmt.Sprint(ev); !tc.cached || !seen[key] {
					seen[key] = true
					calls++
					defects += int64(len(ev))
				}
			}
		}
		got := c.DecoderCounters()
		if got.MatcherCalls != calls || got.MatchedDefects != defects {
			t.Fatalf("rep-%d rounds %d: %d calls / %d defects, want %d / %d",
				tc.d, tc.rounds, got.MatcherCalls, got.MatchedDefects, calls, defects)
		}
	}
}

// TestDecoderCountersRepeatAtMemoCap: once a code's memo is at its
// entry cap it refuses new patterns, and decoding the same tile again
// must count the same matcher calls whichever pooled scratch each decode
// gets. The first pass decodes the tile four times back to back on one
// goroutine, so the pool hands the same decodeBuf back; the second
// empties the pool before every decode (two collections clear a
// sync.Pool), so each starts on fresh scratch. Anything a buf
// remembered between decodes would answer lanes in the first pass that
// the second sends to the matcher.
func TestDecoderCountersRepeatAtMemoCap(t *testing.T) {
	c, err := NewRepetition(11)
	if err != nil {
		t.Fatal(err)
	}
	if bits := c.detectorBits(); bits+1 < memoMaxSlotBits {
		t.Fatalf("rep-(11,1) has %d detector bits; its memo would never reach the slot ceiling", bits)
	}
	const w = 8
	live := make([]uint64, w)
	for k := range live {
		live[k] = ^uint64(0)
	}
	out := make([]uint64, w)
	atCap := func() bool {
		tab := c.mwpmMemo.table.Load()
		return tab != nil && len(tab.slots) == c.mwpmMemo.maxSlots && tab.size.Load() >= tab.entryCap()
	}
	src := rng.New(17)
	for i := 0; !atCap(); i++ {
		if i == 200 {
			t.Fatalf("memo holds %d entries after %d tiles, short of its cap", c.mwpmMemo.entries(), i)
		}
		c.DecodeTile(tileRecord(c, w, src), w, live, out)
	}
	rec := tileRecord(c, w, src)
	pass := func(emptyPool bool) DecoderCounters {
		before := c.DecoderCounters()
		for r := 0; r < 4; r++ {
			if emptyPool {
				runtime.GC()
				runtime.GC()
			}
			c.DecodeTile(rec, w, live, out)
		}
		d := c.DecoderCounters()
		d.Add(DecoderCounters{
			TriggeredLanes: -before.TriggeredLanes, MatcherCalls: -before.MatcherCalls,
			MatchedDefects: -before.MatchedDefects, ExactParity: -before.ExactParity,
			MemoEntries: -before.MemoEntries,
		})
		return d
	}
	warm, fresh := pass(false), pass(true)
	if warm != fresh {
		t.Fatalf("same tile on a capped memo counted %+v on reused scratch, %+v on fresh scratch", warm, fresh)
	}
	if warm.MatcherCalls == 0 || warm.MemoEntries != 0 {
		t.Fatalf("counters %+v: want matcher calls and no new memo entries past the cap", warm)
	}
}

// TestDecoderCountersAddSumsEveryField fills every field with a
// distinct value, so a counter added to the struct later fails here
// until Add sums it too.
func TestDecoderCountersAddSumsEveryField(t *testing.T) {
	var a, b DecoderCounters
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < va.NumField(); i++ {
		va.Field(i).SetInt(int64(1 + i))
		vb.Field(i).SetInt(int64(100 * (1 + i)))
	}
	a.Add(b)
	for i := 0; i < va.NumField(); i++ {
		if got, want := va.Field(i).Int(), int64(101*(1+i)); got != want {
			t.Errorf("%s: Add left %d, want %d", va.Type().Field(i).Name, got, want)
		}
	}
}

// FuzzTileDecodersMatchScalarOracle draws a code (rep d 3–9 or XXZZ
// (1,3)/(3,3), rounds 2–4), a w-word tile of record bits (w 1–8, dense
// or sparse) and live masks, and holds all three decoders, tile and
// one-lane scalar, to the scalar oracle lane by lane: first each on
// fresh memos, then both again on the memos that pass filled.
func FuzzTileDecodersMatchScalarOracle(f *testing.F) {
	for sel := uint8(0); sel < 6; sel++ {
		f.Add(sel, sel, sel, uint64(sel), sel%2 == 0)
	}
	f.Fuzz(func(t *testing.T, codeSel, roundSel, wSel uint8, seed uint64, sparse bool) {
		rounds := 2 + int(roundSel%3)
		var (
			c   *Code
			err error
		)
		switch sel := int(codeSel % 6); {
		case sel < 4:
			c, err = NewRepetitionRounds(3+2*sel, rounds)
		case sel == 4:
			c, err = NewXXZZRounds(1, 3, rounds)
		default:
			c, err = NewXXZZRounds(3, 3, rounds)
		}
		if err != nil {
			t.Fatal(err)
		}
		w := 1 + int(wSel%8)
		src := rng.New(seed)
		rec := make([]uint64, c.Circ.NumClbits*w)
		for i := range rec {
			rec[i] = src.Uint64()
			if sparse {
				rec[i] &= src.Uint64() & src.Uint64()
			}
		}
		live := make([]uint64, w)
		for k := range live {
			live[k] = src.Uint64()
		}
		type tileFunc = func(rec []uint64, w int, live, out []uint64)
		decoders := []struct {
			name         string
			tile         tileFunc
			lane, oracle func([]int) int
		}{
			{"mwpm", c.DecodeTile, c.Decode, c.oracleDecode},
			{"union-find", c.DecodeUnionFindTile, func(b []int) int { return c.decodeLane(b, c.ufMemo, ufParity) }, c.oracleUnionFind},
			{"greedy", c.DecodeGreedyTile, func(b []int) int { return c.decodeLane(b, c.greedyMemo, greedyParity) }, c.oracleGreedy},
		}
		out := make([]uint64, w)
		bits := make([]int, c.Circ.NumClbits)
		for _, fresh := range []bool{true, false} {
			for _, d := range decoders {
				if fresh {
					c.newMemos()
				}
				d.tile(rec, w, live, out)
				if fresh {
					c.newMemos()
				}
				for k := 0; k < w; k++ {
					for m := live[k]; m != 0; m &= m - 1 {
						lane := uint(mathbits.TrailingZeros64(m))
						for cb := range bits {
							bits[cb] = int(rec[cb*w+k]>>lane) & 1
						}
						want := d.oracle(bits)
						if got := int(out[k]>>lane) & 1; got != want {
							t.Fatalf("%s rounds %d %s (fresh %v): word %d lane %d tile %d, oracle %d",
								c.Name, c.Rounds, d.name, fresh, k, lane, got, want)
						}
						if got := d.lane(bits); got != want {
							t.Fatalf("%s rounds %d %s (fresh %v): word %d lane %d one-lane %d, oracle %d",
								c.Name, c.Rounds, d.name, fresh, k, lane, got, want)
						}
					}
				}
			}
		}
	})
}

// BenchmarkDecodeTileHitPath times the memo-hit path fig5 lives on: the
// rep-5 code at two rounds (a 12-bit detector pattern), 8-word tiles of
// records whose bits fire independently at 4.5%, so about 45% of lanes
// see a defect, decoded against a memo every pattern has already
// reached. It reports ns per tile word and the triggered share it ran
// at.
func BenchmarkDecodeTileHitPath(b *testing.B) {
	c, err := NewRepetition(5)
	if err != nil {
		b.Fatal(err)
	}
	const w, tiles = 8, 64
	src := rng.New(45)
	recs := make([][]uint64, tiles)
	live := make([]uint64, w)
	for k := range live {
		live[k] = ^uint64(0)
	}
	out := make([]uint64, w)
	events := make([]uint64, c.detectorBits()*w)
	var triggered int
	for t := range recs {
		rec := make([]uint64, c.Circ.NumClbits*w)
		for i := range rec {
			rec[i] = src.BernoulliWord(rng.Threshold(0.045))
		}
		recs[t] = rec
		anyw := make([]uint64, w)
		c.detectionEventTile(rec, w, events, anyw)
		for _, a := range anyw {
			triggered += mathbits.OnesCount64(a)
		}
		c.DecodeTile(rec, w, live, out) // warm the memo
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.DecodeTile(recs[i%tiles], w, live, out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*w), "ns/word")
	b.ReportMetric(float64(triggered)/float64(tiles*w*64), "triggered_share")
}

// laneGatherKey is how decodeTile built a lane's memo key before
// laneKeys: bit i of the key is bit lane of detection word i, gathered
// one bit at a time. TestTileKeysMatchLaneGather holds the transposed
// keys to it.
func laneGatherKey(events []uint64, w, k, nbits int, lane uint) uint64 {
	var key uint64
	for i := 0; i < nbits; i++ {
		key |= (events[i*w+k] >> lane) & 1 << uint(i)
	}
	return key
}

// TestTileKeysMatchLaneGather builds every lane's key by block transpose
// and by the per-lane gather, for every key width a memo takes (1–62
// bits: every block size) and tile widths 1–8, on sparse, half-full and
// dense event words, reusing one laneKeys throughout so a wide build's
// rows cannot leak into a narrow one.
func TestTileKeysMatchLaneGather(t *testing.T) {
	src := rng.New(1234)
	var keys laneKeys
	for nbits := 1; nbits <= memoKeyBits; nbits++ {
		for w := 1; w <= 8; w++ {
			events := make([]uint64, nbits*w)
			for i := range events {
				switch i % 3 {
				case 0:
					events[i] = src.Uint64()
				case 1:
					events[i] = src.BernoulliWord(rng.Threshold(0.05))
				default:
					events[i] = ^src.BernoulliWord(rng.Threshold(0.05))
				}
			}
			for k := 0; k < w; k++ {
				keys.build(events, w, k, nbits)
				for lane := uint(0); lane < 64; lane++ {
					if got, want := keys.key(lane), laneGatherKey(events, w, k, nbits, lane); got != want {
						t.Fatalf("nbits %d w %d word %d lane %d: key %#x, gather %#x", nbits, w, k, lane, got, want)
					}
				}
			}
		}
	}
}

// TestDecodeTileStoresGatherKeys decodes one tile per code into an empty
// memo and requires that the memo then holds exactly the per-lane
// gathered key of every triggered live lane: the keys decodeTile probes
// and stores are the defect patterns themselves. Codes span the block
// sizes from 16 up to the widest pattern an entry holds (12, 32, 48 and
// 62 bits), where a pattern bit lost to the entry's parity and ready
// bits would alias two patterns without any decoded value showing it.
func TestDecodeTileStoresGatherKeys(t *testing.T) {
	for _, tc := range []struct{ d, rounds int }{{5, 2}, {9, 3}, {17, 2}, {3, 30}} {
		c, err := NewRepetitionRounds(tc.d, tc.rounds)
		if err != nil {
			t.Fatal(err)
		}
		nbits := c.detectorBits()
		if nbits > memoKeyBits {
			t.Fatalf("%s rounds %d: %d detector bits, past a memo key", c.Name, tc.rounds, nbits)
		}
		const w = 3
		rec := tileRecord(c, w, rng.New(uint64(tc.d*100+tc.rounds)))
		live := []uint64{^uint64(0), 0xf0f0f0f0f0f0f0f0, ^uint64(0)}
		out := make([]uint64, w)
		c.mwpmMemo = newParityMemo(nbits)
		c.DecodeTile(rec, w, live, out)
		events := make([]uint64, nbits*w)
		anyw := make([]uint64, w)
		c.detectionEventTile(rec, w, events, anyw)
		distinct := map[uint64]bool{}
		for k := 0; k < w; k++ {
			for m := anyw[k] & live[k]; m != 0; m &= m - 1 {
				lane := uint(mathbits.TrailingZeros64(m))
				key := laneGatherKey(events, w, k, nbits, lane)
				if _, ok := c.mwpmMemo.load(memoHash(key), key); !ok {
					t.Fatalf("%s rounds %d word %d lane %d: pattern %#x not in the memo", c.Name, tc.rounds, k, lane, key)
				}
				distinct[key] = true
			}
		}
		if got := c.mwpmMemo.entries(); got != int64(len(distinct)) {
			t.Fatalf("%s rounds %d: memo holds %d entries for %d distinct patterns", c.Name, tc.rounds, got, len(distinct))
		}
	}
}
