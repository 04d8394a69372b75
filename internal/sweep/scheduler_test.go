package sweep

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
	"weak"
)

// TestSchedulerMatchesPrivatePool: a sweep run on a shared scheduler
// returns exactly what the classic private-pool Run returns.
func TestSchedulerMatchesPrivatePool(t *testing.T) {
	points := []Point{
		bernoulliPoint("a", 11, 0.05),
		bernoulliPoint("b", 12, 0.2),
		bernoulliPoint("c", 13, 0.5),
	}
	cfg := Config{Policy: Policy{Shots: 640}, Mechanism: Mechanism{Workers: 3}}
	want := runT(t, cfg, points)

	sched := NewScheduler(4)
	defer sched.Close()
	cfg.Scheduler = sched
	got := runT(t, cfg, points)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("shared-pool results diverged:\n%v\nvs\n%v", got, want)
	}
}

// TestSchedulerFairRoundRobin: with one pool worker and two concurrent
// campaigns, points are handed out alternately — neither campaign can
// starve the other.
func TestSchedulerFairRoundRobin(t *testing.T) {
	s := NewScheduler(1)
	defer s.Close()
	bothIn := make(chan struct{})
	var (
		mu    sync.Mutex
		order []byte
	)
	cfg := Config{Policy: Policy{Shots: 1}, Mechanism: Mechanism{Workers: 1, Scheduler: s, OnResult: func(r Result) {
		mu.Lock()
		order = append(order, r.Key[0])
		mu.Unlock()
	}}}
	mk := func(name string, n int) []Point {
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{Key: fmt.Sprintf("%s%d", name, i), Prepare: func() BatchRunner {
				return func(start, n int) Counts {
					<-bothIn // the first point holds the lone worker until both campaigns queue
					return Counts{Shots: n}
				}
			}}
		}
		return pts
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); runT(t, cfg, mk("a", 3)) }()
	go func() { defer wg.Done(); runT(t, cfg, mk("b", 3)) }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		n := len(s.queues)
		s.mu.Unlock()
		if n == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("campaigns never both enqueued")
		}
		time.Sleep(time.Millisecond)
	}
	close(bothIn)
	wg.Wait()
	if len(order) != 6 {
		t.Fatalf("completions = %q", order)
	}
	for i := 0; i+1 < len(order); i++ {
		if order[i] == order[i+1] {
			t.Fatalf("round-robin starved a campaign: completion order %q", order)
		}
	}
}

// TestSchedulerWorkersCapRespected: a campaign's Workers setting caps
// its concurrency inside a larger pool.
func TestSchedulerWorkersCapRespected(t *testing.T) {
	s := NewScheduler(8)
	defer s.Close()
	var (
		mu       sync.Mutex
		active   int
		maxSeen  int
		release  = make(chan struct{})
		started  = make(chan struct{}, 16)
		points   []Point
		nPoints  = 6
		capLimit = 2
	)
	for i := 0; i < nPoints; i++ {
		points = append(points, Point{Key: fmt.Sprintf("p%d", i), Prepare: func() BatchRunner {
			return func(start, n int) Counts {
				mu.Lock()
				active++
				if active > maxSeen {
					maxSeen = active
				}
				mu.Unlock()
				started <- struct{}{}
				<-release
				mu.Lock()
				active--
				mu.Unlock()
				return Counts{Shots: n}
			}
		}})
	}
	done := make(chan struct{})
	go func() {
		runT(t, Config{Policy: Policy{Shots: 1}, Mechanism: Mechanism{Workers: capLimit, Scheduler: s}}, points)
		close(done)
	}()
	// Wait for the first capLimit points to start, give the scheduler a
	// chance to (wrongly) start more, then release everything.
	for i := 0; i < capLimit; i++ {
		<-started
	}
	time.Sleep(10 * time.Millisecond)
	close(release)
	<-done
	if maxSeen > capLimit {
		t.Fatalf("campaign ran %d points concurrently, cap %d", maxSeen, capLimit)
	}
}

// TestCacheSkipsPreparedPoints: a committed cache entry short-circuits
// the point — Prepare must never run — and the replayed result carries
// the recomputed interval and the stored batch count.
func TestCacheSkipsPreparedPoints(t *testing.T) {
	cache := newMapCache()
	live := runT(t, Config{Policy: Policy{Shots: 320}, Mechanism: Mechanism{Cache: cache}}, []Point{
		{Key: "a", Hash: "ha", Prepare: bernoulliPoint("a", 21, 0.1).Prepare},
	})[0]
	if live.Cached {
		t.Fatal("first run reported Cached")
	}
	replay := runT(t, Config{Policy: Policy{Shots: 320}, Mechanism: Mechanism{Cache: cache}}, []Point{
		{Key: "a", Hash: "ha", Prepare: func() BatchRunner {
			t.Fatal("Prepare called despite committed cache entry")
			return nil
		}},
	})[0]
	if !replay.Cached {
		t.Fatal("replay not marked Cached")
	}
	replay.Cached = false
	if !reflect.DeepEqual(replay, live) {
		t.Fatalf("replay diverged:\n%+v\nvs\n%+v", replay, live)
	}
	// Hashless points bypass the cache entirely.
	r := runT(t, Config{Policy: Policy{Shots: 64}, Mechanism: Mechanism{Cache: cache}}, []Point{bernoulliPoint("nohash", 5, 0.5)})[0]
	if r.Cached || r.Shots != 64 {
		t.Fatalf("hashless point touched the cache: %+v", r)
	}
}

// mapCache is an in-memory PointCache for tests.
type mapCache struct {
	mu      sync.Mutex
	commits map[string]CachedPoint
	ckpts   map[string]CachedPoint
}

func newMapCache() *mapCache {
	return &mapCache{commits: map[string]CachedPoint{}, ckpts: map[string]CachedPoint{}}
}

func (c *mapCache) Lookup(h string) (CachedPoint, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.commits[h]
	return p, ok
}

func (c *mapCache) LookupPartial(h string) (CachedPoint, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.ckpts[h]
	return p, ok
}

func (c *mapCache) Checkpoint(h string, p CachedPoint) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ckpts[h] = p
}

func (c *mapCache) Commit(h string, p CachedPoint) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.commits[h] = p
	delete(c.ckpts, h)
}

// TestFinishedPointReleasesRunner: a point's runner — the engine
// campaign with its simulator and tile states — must become collectable
// when the point finishes, not when its campaign does; a campaign's heap
// would otherwise grow with every point it has completed.
func TestFinishedPointReleasesRunner(t *testing.T) {
	type engine struct{ state [1 << 12]uint64 }
	var first weak.Pointer[engine]
	firstGone := false
	points := []Point{
		{Key: "first", Prepare: func() BatchRunner {
			e := &engine{}
			first = weak.Make(e)
			return func(start, n int) Counts { return Counts{Shots: n, Errors: int(e.state[0])} }
		}},
		{Key: "second", Prepare: func() BatchRunner {
			return func(start, n int) Counts {
				runtime.GC()
				firstGone = first.Value() == nil
				return Counts{Shots: n}
			}
		}},
	}
	// One worker, one batch each: "second" starts after "first" completed,
	// inside the same campaign.
	runT(t, Config{Policy: Policy{Shots: 1}, Mechanism: Mechanism{Workers: 1}}, points)
	if !firstGone {
		t.Fatal("the finished point's runner was still reachable while its campaign ran on")
	}
}
