package sweep

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"radqec/internal/control"
	"radqec/internal/telemetry"
)

// ctrlPoints builds a mixed point set: tail-sensitive and plain points
// across a range of rates, the shape of a radiation-strike campaign.
func ctrlPoints(n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = bernoulliPoint(fmt.Sprintf("p%d", i), uint64(300+i), float64(i%9)/20)
		pts[i].TailSensitive = i%3 == 0
	}
	return pts
}

// TestControllerResultsByteIdentical is the PR's core guarantee: the
// full Result set — counts, batch-rate streams, intervals, tail
// statistics, convergence flags — is identical with the controller on
// and off, at any worker count, in fixed and adaptive mode. Equal
// Results imply byte-identical tables, since tables are pure functions
// of the results.
func TestControllerResultsByteIdentical(t *testing.T) {
	for _, pol := range []Policy{
		{Shots: 1100, Align: 64},
		{CI: 0.03, Batch: 128, Align: 64},
	} {
		baseline := runT(t, Config{Policy: pol, Mechanism: Mechanism{Workers: 1}}, ctrlPoints(18))
		for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			for _, ctrl := range []*control.Policy{nil, control.Default(), {Enabled: true, Dwell: 1, Hysteresis: 0.01, MaxChunk: 256}} {
				cfg := Config{Policy: pol, Mechanism: Mechanism{Workers: workers, Control: ctrl}}
				got := runT(t, cfg, ctrlPoints(18))
				if !reflect.DeepEqual(got, baseline) {
					t.Fatalf("policy %+v workers %d controller %+v diverged from baseline", pol, workers, ctrl)
				}
			}
		}
	}
}

// TestControllerDeterminismOnSharedScheduler: concurrent heterogeneous
// campaigns — fixed, adaptive, tail-heavy — multiplexed over one pool
// with the controller on still reproduce their solo static baselines.
func TestControllerDeterminismOnSharedScheduler(t *testing.T) {
	type campaign struct {
		pol Policy
		n   int
	}
	camps := []campaign{
		{Policy{Shots: 900, Align: 64}, 12},
		{Policy{CI: 0.04, Batch: 128, Align: 64}, 12},
		{Policy{Shots: 500}, 8},
	}
	baselines := make([][]Result, len(camps))
	for i, c := range camps {
		baselines[i] = runT(t, Config{Policy: c.pol, Mechanism: Mechanism{Workers: 1}}, ctrlPoints(c.n))
	}
	s := NewScheduler(4)
	defer s.Close()
	var wg sync.WaitGroup
	got := make([][]Result, len(camps))
	for i, c := range camps {
		wg.Add(1)
		go func(i int, c campaign) {
			defer wg.Done()
			cfg := Config{Policy: c.pol, Mechanism: Mechanism{
				Workers: 2, Scheduler: s, Control: control.Default(),
			}}
			got[i] = runT(t, cfg, ctrlPoints(c.n))
		}(i, c)
	}
	wg.Wait()
	for i := range camps {
		if !reflect.DeepEqual(got[i], baselines[i]) {
			t.Fatalf("campaign %d diverged from its solo static baseline under concurrent controller scheduling", i)
		}
	}
}

// TestTailSensitivePointsServedFirst: with one worker, every
// tail-sensitive point of a campaign completes before any plain point
// starts — the tail band of the priority order strictly dominates.
func TestTailSensitivePointsServedFirst(t *testing.T) {
	var order []string
	pts := ctrlPoints(12)
	nTail := 0
	for _, p := range pts {
		if p.TailSensitive {
			nTail++
		}
	}
	cfg := Config{Policy: Policy{Shots: 300}, Mechanism: Mechanism{
		Workers: 1,
		Control: control.Default(),
		OnResult: func(r Result) {
			order = append(order, r.Key)
		},
	}}
	runT(t, cfg, pts)
	tailKeys := map[string]bool{}
	for _, p := range pts {
		if p.TailSensitive {
			tailKeys[p.Key] = true
		}
	}
	for i, k := range order[:nTail] {
		if !tailKeys[k] {
			t.Fatalf("completion %d was plain point %s before the tail-sensitive set drained (order %v)", i, k, order)
		}
	}
}

// TestControllerBorrowsIdleWorkers: Workers is a hard concurrency cap
// for static campaigns but only a contention share for controller
// campaigns — on an otherwise idle pool the controller borrows the
// unused slots, keeping the scheduler work-conserving.
func TestControllerBorrowsIdleWorkers(t *testing.T) {
	mk := func() ([]Point, *atomic.Int64) {
		var cur, peak atomic.Int64
		pts := make([]Point, 8)
		for i := range pts {
			inner := bernoulliPoint(fmt.Sprintf("p%d", i), uint64(70+i), 0.1).Prepare
			pts[i] = Point{Key: fmt.Sprintf("p%d", i), Prepare: func() BatchRunner {
				r := inner()
				return func(start, n int) Counts {
					c := cur.Add(1)
					defer cur.Add(-1)
					for {
						m := peak.Load()
						if c <= m || peak.CompareAndSwap(m, c) {
							break
						}
					}
					time.Sleep(time.Millisecond)
					return r(start, n)
				}
			}}
		}
		return pts, &peak
	}
	s := NewScheduler(4)
	defer s.Close()
	pts, peak := mk()
	s.Run(context.Background(), Config{Policy: Policy{Shots: 256}, Mechanism: Mechanism{Workers: 1}}, pts)
	if got := peak.Load(); got != 1 {
		t.Fatalf("static campaign ran %d points concurrently past its Workers=1 cap", got)
	}
	pts, peak = mk()
	s.Run(context.Background(), Config{Policy: Policy{Shots: 256}, Mechanism: Mechanism{
		Workers: 1, Control: control.Default(),
	}}, pts)
	if got := peak.Load(); got < 2 {
		t.Fatalf("controller campaign peaked at %d concurrent points — idle pool slots were not borrowed", got)
	}
}

// TestSingleFlightComputesOnce: two identical campaigns racing on a
// cold daemon must Prepare each point exactly once — the follower parks
// on the in-flight hash and replays the leader's commit from the cache.
func TestSingleFlightComputesOnce(t *testing.T) {
	s := NewScheduler(4)
	defer s.Close()
	cache := newMapCache()
	var prepares atomic.Int64
	mk := func() []Point {
		pts := make([]Point, 10)
		for i := range pts {
			inner := bernoulliPoint(fmt.Sprintf("p%d", i), uint64(50+i), 0.2).Prepare
			pts[i] = Point{
				Key:  fmt.Sprintf("p%d", i),
				Hash: fmt.Sprintf("h%d", i),
				Prepare: func() BatchRunner {
					prepares.Add(1)
					return inner()
				},
			}
		}
		return pts
	}
	cfg := Config{Policy: Policy{Shots: 600, Align: 64}, Mechanism: Mechanism{
		Workers: 2, Scheduler: s, Cache: cache, Control: control.Default(),
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
		Workers: 2, Cache: cache, Control: control.Default(), Telemetry: tel,
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
	if st.Batches < int64(len(res[0].BatchRates)+len(res[1].BatchRates)) {
		t.Fatalf("batches %d below the recorded rate stream", st.Batches)
	}
	if st.Chunks < st.Batches {
		t.Fatalf("chunks %d below batches %d", st.Chunks, st.Batches)
	}
	sigs, _ := tel.Since(0, telemetry.RingSize)
	if len(sigs) == 0 {
		t.Fatal("no signals recorded")
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
