package sweep

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"radqec/internal/telemetry"
)

// mixedPoints builds a point set across a range of rates, the shape of
// a radiation-strike campaign.
func mixedPoints(n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = bernoulliPoint(fmt.Sprintf("p%d", i), uint64(300+i), float64(i%9)/20)
	}
	return pts
}

// TestDeterminismOnSharedScheduler: concurrent heterogeneous campaigns
// — fixed, adaptive, tail-heavy — multiplexed batch by batch over one
// pool still reproduce their solo one-worker baselines.
func TestDeterminismOnSharedScheduler(t *testing.T) {
	type campaign struct {
		pol Policy
		n   int
	}
	camps := []campaign{
		{Policy{Shots: 900, Align: 64}, 12},
		{Policy{CI: 0.04, Align: 64}, 12},
		{Policy{Shots: 500}, 8},
	}
	baselines := make([][]Result, len(camps))
	for i, c := range camps {
		baselines[i] = runT(t, Config{Policy: c.pol, Mechanism: Mechanism{Workers: 1}}, mixedPoints(c.n))
	}
	s := NewScheduler(4)
	defer s.Close()
	var wg sync.WaitGroup
	got := make([][]Result, len(camps))
	for i, c := range camps {
		wg.Add(1)
		go func(i int, c campaign) {
			defer wg.Done()
			cfg := Config{Policy: c.pol, Mechanism: Mechanism{Workers: 2, Scheduler: s}}
			got[i] = runT(t, cfg, mixedPoints(c.n))
		}(i, c)
	}
	wg.Wait()
	for i := range camps {
		if !reflect.DeepEqual(got[i], baselines[i]) {
			t.Fatalf("campaign %d diverged from its solo baseline under concurrent scheduling", i)
		}
	}
}

// TestTurnIsOnePolicyBatch drives a worker-less pool by hand, one
// handout at a time: a point takes exactly as many turns as it has
// policy batches (its last batch and its finalize share a turn), and
// between batches it goes to the back of the queue, so two points on
// one worker interleave p0 p1 p0 p1 ….
func TestTurnIsOnePolicyBatch(t *testing.T) {
	for _, tc := range []struct {
		shots, batches int
	}{
		{64, 1},  // one 64-aligned batch: one turn, no yield
		{256, 4}, // Shots/8 aligned up to 64: four batches, three yields
	} {
		s := &Scheduler{flights: make(map[string]struct{})}
		s.cond = sync.NewCond(&s.mu)
		pts := []Point{bernoulliPoint("p0", 1, 0.1), bernoulliPoint("p1", 2, 0.2)}
		ran := make(chan []Result, 1)
		go func() {
			res, _ := s.Run(context.Background(), Config{Policy: Policy{Shots: tc.shots, Align: 64}, Mechanism: Mechanism{Workers: 1}}, pts)
			ran <- res
		}()
		var order []int
		yields := make([]int, len(pts))
		for left := len(pts); left > 0; {
			q, i := s.take()
			order = append(order, i)
			done, err := q.safeTurn(i)
			if err != nil {
				t.Fatal(err)
			}
			if done {
				left--
				s.complete(q, i)
			} else {
				yields[i]++
				s.requeue(q, i)
			}
		}
		res := <-ran
		var want []int
		for b := 0; b < tc.batches; b++ {
			want = append(want, 0, 1)
		}
		if !reflect.DeepEqual(order, want) {
			t.Fatalf("shots %d: handout order %v, want %v", tc.shots, order, want)
		}
		for i, r := range res {
			if r.Batches != tc.batches || yields[i] != tc.batches-1 {
				t.Fatalf("shots %d point %d: %d batches, %d yields; want %d batches in %d turns",
					tc.shots, i, r.Batches, yields[i], tc.batches, tc.batches)
			}
		}
	}
}

// TestSingleFlightComputesOnce: two identical campaigns racing on a
// cold daemon, nothing set but a cache, must Prepare each point exactly
// once — the follower skips the in-flight hash and replays the leader's
// commit from the cache. The first points hold their workers in Prepare
// until both campaigns are queued, so the race is real on every run.
func TestSingleFlightComputesOnce(t *testing.T) {
	s := NewScheduler(4)
	defer s.Close()
	cache := newMapCache()
	var prepares atomic.Int64
	bothIn := make(chan struct{})
	mk := func() []Point {
		pts := make([]Point, 10)
		for i := range pts {
			inner := bernoulliPoint(fmt.Sprintf("p%d", i), uint64(50+i), 0.2).Prepare
			pts[i] = Point{
				Key:  fmt.Sprintf("p%d", i),
				Hash: fmt.Sprintf("h%d", i),
				Prepare: func() BatchRunner {
					prepares.Add(1)
					<-bothIn
					return inner()
				},
			}
		}
		return pts
	}
	cfg := Config{Policy: Policy{Shots: 600, Align: 64}, Mechanism: Mechanism{
		Workers: 2, Scheduler: s, Cache: cache,
	}}
	var wg sync.WaitGroup
	results := make([][]Result, 2)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = runT(t, cfg, mk())
		}(i)
	}
	queued := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.queues)
	}
	for deadline := time.Now().Add(5 * time.Second); queued() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("campaigns never both enqueued")
		}
	}
	close(bothIn)
	wg.Wait()
	if n := prepares.Load(); n != 10 {
		t.Fatalf("identical concurrent campaigns prepared %d points, want 10 (one per distinct hash)", n)
	}
	// Both campaigns carry identical estimates; only the Cached flag
	// differs between the computing leader and the replaying follower.
	for i := range results[0] {
		a, b := results[0][i], results[1][i]
		a.Cached, b.Cached = false, false
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("point %d: leader and follower disagree:\n%+v\nvs\n%+v", i, a, b)
		}
	}
	// Every single-flight claim must have been released.
	s.mu.Lock()
	inFlight := len(s.flights)
	s.mu.Unlock()
	if inFlight != 0 {
		t.Fatalf("%d single-flight claims leaked", inFlight)
	}
}

// TestTelemetryObservesCampaign: the telemetry campaign attached to a
// sweep sees every shot, batch and point and the time points spend in
// Prepare, and cache replays surface as hits rather than engine work.
func TestTelemetryObservesCampaign(t *testing.T) {
	cache := newMapCache()
	tel := telemetry.NewCampaign(1, "test")
	cfg := Config{Policy: Policy{Shots: 640, Align: 64}, Mechanism: Mechanism{
		Workers: 2, Cache: cache, Telemetry: tel,
	}}
	const setUp = 20 * time.Millisecond
	pts := []Point{
		{Key: "a", Hash: "ha", Prepare: func() BatchRunner {
			time.Sleep(setUp)
			return bernoulliPoint("a", 1, 0.1).Prepare()
		}},
		{Key: "b", Hash: "hb", Prepare: bernoulliPoint("b", 2, 0.3).Prepare},
	}
	res := runT(t, cfg, pts)
	st := tel.Stats()
	if st.PrepareNS < setUp.Nanoseconds() || st.WallNS >= setUp.Nanoseconds() {
		t.Fatalf("a %v Prepare shows as %v of set-up and %v of run time; set-up must be counted, and apart from the chunks",
			setUp, time.Duration(st.PrepareNS), time.Duration(st.WallNS))
	}
	wantShots := int64(res[0].Shots + res[1].Shots)
	if st.Shots != wantShots {
		t.Fatalf("telemetry shots %d, results say %d", st.Shots, wantShots)
	}
	if st.PointsDone != 2 || st.CacheMisses != 2 || st.CacheHits != 0 {
		t.Fatalf("cold-run stats: %+v", st)
	}
	// One record per turn, one batch per turn: the last batch of a point
	// and its commit share a record.
	wantBatches := res[0].Batches + res[1].Batches
	sigs, _ := tel.Since(0, telemetry.RingSize)
	if st.Batches != int64(wantBatches) || len(sigs) != wantBatches {
		t.Fatalf("%d batches on %d records, the rate streams hold %d", st.Batches, len(sigs), wantBatches)
	}
	// A warm rerun is pure cache traffic.
	tel2 := telemetry.NewCampaign(2, "test")
	cfg.Telemetry = tel2
	runT(t, cfg, []Point{
		{Key: "a", Hash: "ha", Prepare: func() BatchRunner { t.Fatal("prepared despite commit"); return nil }},
	})
	st2 := tel2.Stats()
	if st2.CacheHits != 1 || st2.CacheMisses != 0 || st2.Shots != int64(res[0].Shots) || st2.PrepareNS != 0 {
		t.Fatalf("warm-run stats: %+v", st2)
	}
}
