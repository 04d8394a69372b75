package exp

import (
	"sync"
	"testing"

	"radqec/internal/store"
	"radqec/internal/sweep"
)

// The registry is process-wide and has no reset: a test that needs cold
// codes asks for a `rounds` nothing before it has asked for. Only
// cache_test.go runs before this file, at two rounds; here the warm-up
// count takes 3, the concurrent pair 4, the bounded test walks every
// depth to 104, and the eviction test after it takes 105 and up.

// TestSecondCampaignFindsTheMemoWarm is what the registry exists for,
// as a count: a campaign at a new seed reaches the matcher less often
// than the campaign before it did, because it decodes on the same
// codes. Before the registry every campaign built its own and paid a
// cold process's count.
func TestSecondCampaignFindsTheMemoWarm(t *testing.T) {
	cfg := Config{Shots: 2000, Seed: 11, Rounds: 3}
	calls := func() int64 {
		before := Registry().Decoder
		if _, err := fig5(cfg.Defaults()); err != nil {
			t.Fatal(err)
		}
		after := Registry().Decoder
		if after.TriggeredLanes == before.TriggeredLanes {
			t.Fatal("fig5 decoded no triggered lane")
		}
		return after.MatcherCalls - before.MatcherCalls
	}
	first := calls()
	cfg.Seed = 12
	second := calls()
	if first == 0 || second >= first {
		t.Fatalf("seed 12 after seed 11 made %d matcher calls, seed 11 made %d: the second campaign should find the memos warm",
			second, first)
	}
	t.Logf("matcher calls: first campaign %d, second %d", first, second)
}

// TestConcurrentCampaignsShareCodes runs two fig5 campaigns at
// different seeds at once on one scheduler, on codes no one has built
// yet — so the first prepare, the DEM compile, the compiled reference,
// the circuit literal and the memos' growth all happen with both
// campaigns inside them — and compares each table with its solo run.
// The point of it is the race detector.
func TestConcurrentCampaignsShareCodes(t *testing.T) {
	sched := sweep.NewScheduler(4)
	defer sched.Close()
	seeds := []uint64{21, 22}
	got := make([]string, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		st, err := store.Open(t.TempDir(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			tab, err := fig5(Config{Shots: 512, Seed: seed, Rounds: 4, Scheduler: sched, Cache: st}.Defaults())
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = tableHash(tab)
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, seed := range seeds {
		solo, err := fig5(Config{Shots: 512, Seed: seed, Rounds: 4}.Defaults())
		if err != nil {
			t.Fatal(err)
		}
		if want := tableHash(solo); got[i] != want {
			t.Errorf("seed %d: table of the concurrent campaign %s, solo %s", seed, got[i], want)
		}
	}
}

// TestRegistryBounded walks `rounds` — the one input a client can make
// as many codes with as it likes — past the cap and checks that the
// registry stays inside it, counts what it dropped, and that a code it
// dropped comes back and still produces its golden table.
func TestRegistryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("a hundred one-shot campaigns and one full-size fig5")
	}
	first, err := Config{Rounds: 2}.repetition(5)
	if err != nil {
		t.Fatal(err)
	}
	evictions := Registry().Evictions
	for rounds := 2; rounds <= preparedCap+40; rounds++ {
		if _, err := ablationTemporalSamples(Config{Shots: 1, Seed: 3, Rounds: rounds}.Defaults()); err != nil {
			t.Fatalf("rounds %d: %v", rounds, err)
		}
		codeRegistry.mu.Lock()
		codes, circuits := len(codeRegistry.codes), codeRegistry.prepared
		codeRegistry.mu.Unlock()
		if codes > preparedCap || circuits > preparedCap {
			t.Fatalf("rounds %d: %d codes and %d prepared circuits resident, cap %d",
				rounds, codes, circuits, preparedCap)
		}
	}
	// The walk asked for preparedCap+39 codes and at most preparedCap stay.
	if d := Registry().Evictions - evictions; d < 39 {
		t.Fatalf("%d evictions counted over %d codes, want at least 39", d, preparedCap+39)
	}
	again, err := Config{Rounds: 2}.repetition(5)
	if err != nil {
		t.Fatal(err)
	}
	if again == first {
		t.Fatal("rep-(5,1) at two rounds, least recently used of over a hundred codes, was not evicted")
	}
	tab, err := fig5(Config{Seed: 1, Engine: EngineBatch, Decoder: DecoderMWPM}.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if got := tableHash(tab); got != goldenFig5 {
		t.Errorf("fig5 on a rebuilt code: sha256 %s, recorded %s", got, goldenFig5)
	}
}

// TestEvictedCodeDecodesCount: the decode counters are the process's,
// not the resident codes', so a campaign still decoding on a code the
// registry has evicted since handing it out raises them like any other
// decode.
func TestEvictedCodeDecodesCount(t *testing.T) {
	const rounds = preparedCap + 41 // past every depth TestRegistryBounded walks
	code, err := codeRegistry.code(codeKey{dZ: 3, dX: 1, rounds: rounds})
	if err != nil {
		t.Fatal(err)
	}
	// preparedCap newer codes push it out.
	for r := rounds + 1; r <= rounds+preparedCap; r++ {
		if _, err := codeRegistry.code(codeKey{dZ: 3, dX: 1, rounds: r}); err != nil {
			t.Fatal(err)
		}
	}
	codeRegistry.mu.Lock()
	_, resident := codeRegistry.byCode[code]
	codeRegistry.mu.Unlock()
	if resident {
		t.Fatal("the least recently used of preparedCap+1 codes is still resident")
	}
	// Every record bit set: each lane sees round 0's two stabilizers and
	// the final layer fire.
	rec := make([]uint64, code.Circ.NumClbits)
	for i := range rec {
		rec[i] = ^uint64(0)
	}
	before := Registry().Decoder
	code.DecodeTile(rec, 1, []uint64{^uint64(0)}, make([]uint64, 1))
	after := Registry().Decoder
	if d := after.TriggeredLanes - before.TriggeredLanes; d < 64 {
		t.Fatalf("a 64-lane tile on an evicted code raised the triggered lanes by %d", d)
	}
	if after.MatcherCalls == before.MatcherCalls {
		t.Fatal("a tile on an evicted code raised no matcher call")
	}
}
