package sweep

// Chaos suite for the sweep engine: cancellation at every batch
// boundary with byte-identical resume, and panic isolation that fails
// one campaign without taking down its siblings or the shared pool.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"radqec/internal/faultinject"
)

// cancellingCache wraps a PointCache and cancels the campaign context
// after the Nth checkpoint — a kill landing exactly on a batch
// boundary, the only place cancellation is observed.
type cancellingCache struct {
	PointCache
	cancel context.CancelFunc
	after  int64
	seen   atomic.Int64
}

func (c *cancellingCache) Checkpoint(h string, p CachedPoint) {
	c.PointCache.Checkpoint(h, p)
	if c.seen.Add(1) == c.after {
		c.cancel()
	}
}

func chaosPoints(n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		p := bernoulliPoint(fmt.Sprintf("p%d", i), uint64(500+i), float64(i%7)/15)
		p.Hash = fmt.Sprintf("h%d", i)
		pts[i] = p
	}
	return pts
}

// normalize strips the Cached flag, which legitimately differs between
// a cold run and a resumed one; every other field must be identical.
func normalize(rs []Result) []Result {
	out := append([]Result(nil), rs...)
	for i := range out {
		out[i].Cached = false
	}
	return out
}

// TestChaosCancelEveryBoundaryResumesByteIdentical is the core
// recovery guarantee: a campaign cancelled after ANY batch boundary
// and resubmitted against the same cache reproduces the uninterrupted
// run exactly — counts, batch streams, intervals, tails.
func TestChaosCancelEveryBoundaryResumesByteIdentical(t *testing.T) {
	const n = 6
	pol := Policy{Shots: 600, Batch: 100, Align: 64}
	mech := func(cache PointCache) Mechanism {
		return Mechanism{Workers: 2, Cache: cache}
	}
	baseline := runT(t, Config{Policy: pol, Mechanism: mech(newMapCache())}, chaosPoints(n))
	// Count the boundaries an uninterrupted run crosses, then kill
	// a fresh campaign at each one in turn.
	counter := &cancellingCache{PointCache: newMapCache(), cancel: func() {}, after: -1}
	runT(t, Config{Policy: pol, Mechanism: mech(counter)}, chaosPoints(n))
	boundaries := counter.seen.Load()
	if boundaries < int64(n) {
		t.Fatalf("only %d checkpoints observed", boundaries)
	}
	for k := int64(1); k <= boundaries; k++ {
		cache := newMapCache()
		ctx, cancel := context.WithCancel(context.Background())
		cc := &cancellingCache{PointCache: cache, cancel: cancel, after: k}
		_, err := Run(ctx, Config{Policy: pol, Mechanism: mech(cc)}, chaosPoints(n))
		cancel()
		if err == nil {
			// The cancel landed after the campaign's last boundary;
			// the run completed normally. Resubmission is then a
			// pure cache replay, which the k<boundaries cases and
			// the final equality below still verify.
			continue
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("k=%d: cancelled run returned %v", k, err)
		}
		resumed, err := Run(context.Background(), Config{Policy: pol, Mechanism: mech(cache)}, chaosPoints(n))
		if err != nil {
			t.Fatalf("k=%d: resumed run failed: %v", k, err)
		}
		if !reflect.DeepEqual(normalize(resumed), normalize(baseline)) {
			t.Fatalf("resume after boundary %d diverged from the uninterrupted run", k)
		}
	}
}

// TestChaosCancelFlushesPartialCheckpoints: cancellation must leave
// every in-progress point's latest batch boundary in the cache, so a
// resubmission computes strictly fewer shots than a cold run.
func TestChaosCancelFlushesPartialCheckpoints(t *testing.T) {
	pol := Policy{Shots: 800, Batch: 100}
	cache := newMapCache()
	ctx, cancel := context.WithCancel(context.Background())
	cc := &cancellingCache{PointCache: cache, cancel: cancel, after: 4}
	_, err := Run(ctx, Config{Policy: pol, Mechanism: Mechanism{Workers: 2, Cache: cc}}, chaosPoints(4))
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	cache.mu.Lock()
	commits, ckpts := len(cache.commits), len(cache.ckpts)
	cache.mu.Unlock()
	if commits+ckpts == 0 {
		t.Fatal("cancellation flushed nothing — all progress lost")
	}
	// Resume: progress must carry over, not restart from shot zero.
	var computed atomic.Int64
	cfg := Config{Policy: pol, Mechanism: Mechanism{
		Workers: 2, Cache: cache,
		OnResult: func(r Result) {
			if !r.Cached {
				computed.Add(1)
			}
		},
	}}
	res := runT(t, cfg, chaosPoints(4))
	for _, r := range res {
		if r.Shots != 800 {
			t.Fatalf("resumed point %s at %d shots", r.Key, r.Shots)
		}
	}
}

// TestChaosPanicIsolatedToItsCampaign: a worker panic fails its own
// campaign with a stack-carrying PointError while a sibling campaign
// sharing the scheduler completes untouched, and the pool stays
// reusable afterwards.
func TestChaosPanicIsolatedToItsCampaign(t *testing.T) {
	s := NewScheduler(4)
	defer s.Close()
	bomb := chaosPoints(6)
	inner := bomb[3].Prepare
	bomb[3].Prepare = func() BatchRunner {
		r := inner()
		return func(start, n int) Counts {
			if start >= 200 {
				panic("detector matrix went singular")
			}
			return r(start, n)
		}
	}
	var wg sync.WaitGroup
	var bombErr, siblingErr error
	var siblingRes []Result
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, bombErr = s.Run(context.Background(), Config{Policy: Policy{Shots: 600, Batch: 100}, Mechanism: Mechanism{Workers: 2}}, bomb)
	}()
	go func() {
		defer wg.Done()
		siblingRes, siblingErr = s.Run(context.Background(), Config{Policy: Policy{Shots: 600, Batch: 100}, Mechanism: Mechanism{Workers: 2}}, chaosPoints(6))
	}()
	wg.Wait()
	var pe *PointError
	if !errors.As(bombErr, &pe) {
		t.Fatalf("panicking campaign returned %v, want a *PointError", bombErr)
	}
	if pe.Key != "p3" {
		t.Fatalf("PointError names %q, want the panicking point p3", pe.Key)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("PointError carries no stack")
	}
	if siblingErr != nil {
		t.Fatalf("sibling campaign failed: %v", siblingErr)
	}
	want := runT(t, Config{Policy: Policy{Shots: 600, Batch: 100}, Mechanism: Mechanism{Workers: 1}}, chaosPoints(6))
	if !reflect.DeepEqual(normalize(siblingRes), normalize(want)) {
		t.Fatal("sibling campaign's results diverged while its neighbour panicked")
	}
	// The pool survives: a fresh campaign on the same scheduler runs clean.
	if res, err := s.Run(context.Background(), Config{Policy: Policy{Shots: 300}, Mechanism: Mechanism{Workers: 2}}, chaosPoints(4)); err != nil || len(res) != 4 {
		t.Fatalf("scheduler unusable after a panic: %v", err)
	}
	// No single-flight claims leaked from the failed campaign.
	s.mu.Lock()
	inFlight := len(s.flights)
	s.mu.Unlock()
	if inFlight != 0 {
		t.Fatalf("%d single-flight claims leaked across the panic", inFlight)
	}
}

// TestChaosPanicFailpoint: the sweep.worker.panic failpoint drives the
// same isolation path without a hand-built bomb point.
func TestChaosPanicFailpoint(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	if err := faultinject.Enable(faultinject.WorkerPanic, "panic*1@3"); err != nil {
		t.Fatal(err)
	}
	_, err := Run(context.Background(), Config{Policy: Policy{Shots: 400, Batch: 100}, Mechanism: Mechanism{Workers: 2}}, chaosPoints(4))
	var pe *PointError
	if !errors.As(err, &pe) {
		t.Fatalf("failpoint-driven panic returned %v, want a *PointError", err)
	}
	if faultinject.Hits(faultinject.WorkerPanic) != 1 {
		t.Fatalf("failpoint hits = %d", faultinject.Hits(faultinject.WorkerPanic))
	}
	// With the failpoint spent, the same campaign completes.
	if _, err := Run(context.Background(), Config{Policy: Policy{Shots: 400, Batch: 100}, Mechanism: Mechanism{Workers: 2}}, chaosPoints(4)); err != nil {
		t.Fatalf("rerun after spent failpoint: %v", err)
	}
}

// TestChaosPreCancelledContextRunsNothing: a context cancelled before
// Run starts must compute zero shots and return the cause.
func TestChaosPreCancelledContextRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var computed atomic.Int64
	pts := chaosPoints(4)
	for i := range pts {
		inner := pts[i].Prepare
		pts[i].Prepare = func() BatchRunner {
			computed.Add(1)
			return inner()
		}
	}
	_, err := Run(ctx, Config{Policy: Policy{Shots: 400}, Mechanism: Mechanism{Workers: 2}}, pts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if n := computed.Load(); n != 0 {
		t.Fatalf("%d points prepared under a dead context", n)
	}
}
