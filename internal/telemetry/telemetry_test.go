package telemetry

import (
	"runtime"
	"sync"
	"testing"
	"weak"

	"radqec/internal/trace"
)

func TestRecordAssignsDenseSequence(t *testing.T) {
	c := NewCampaign(1, "fig5")
	for i := 0; i < 5; i++ {
		c.Record(Signal{Key: "p", Shots: 10, Errors: 1, WallNS: 1e6})
	}
	sigs, next := c.Since(0, RingSize)
	if len(sigs) != 5 || next != 5 {
		t.Fatalf("got %d signals, next %d", len(sigs), next)
	}
	for i, s := range sigs {
		if s.Seq != uint64(i) {
			t.Fatalf("signal %d has seq %d", i, s.Seq)
		}
	}
}

func TestSinceChunksAndResumes(t *testing.T) {
	c := NewCampaign(1, "x")
	for i := 0; i < 10; i++ {
		c.Record(Signal{Start: i})
	}
	var got []Signal
	seq := uint64(0)
	for {
		sigs, next := c.Since(seq, 3)
		if len(sigs) == 0 {
			break
		}
		got = append(got, sigs...)
		seq = next
	}
	if len(got) != 10 {
		t.Fatalf("chunked read returned %d signals", len(got))
	}
	for i, s := range got {
		if s.Start != i {
			t.Fatalf("signal %d out of order: %+v", i, s)
		}
	}
}

func TestSinceSkipsOverwrittenTail(t *testing.T) {
	c := NewCampaign(1, "x")
	n := RingSize + 100
	for i := 0; i < n; i++ {
		c.Record(Signal{Start: i})
	}
	sigs, next := c.Since(0, n)
	if len(sigs) != RingSize {
		t.Fatalf("lagged reader got %d signals, ring holds %d", len(sigs), RingSize)
	}
	if sigs[0].Seq != uint64(n-RingSize) {
		t.Fatalf("oldest retained seq = %d, want %d", sigs[0].Seq, n-RingSize)
	}
	if next != uint64(n) {
		t.Fatalf("next = %d, want %d", next, n)
	}
	// Reading past the head returns nothing and stays at the head.
	if sigs, next := c.Since(uint64(n), 10); len(sigs) != 0 || next != uint64(n) {
		t.Fatalf("read past head returned %d signals, next %d", len(sigs), next)
	}
}

func TestRecordConcurrent(t *testing.T) {
	c := NewCampaign(1, "x")
	var wg sync.WaitGroup
	const workers, each = 8, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Record(Signal{Shots: 1, WallNS: 1})
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.Batches != workers*each || st.Shots != workers*each {
		t.Fatalf("stats after concurrent record: %+v", st)
	}
	sigs, _ := c.Since(0, RingSize)
	seen := map[uint64]bool{}
	for _, s := range sigs {
		if seen[s.Seq] {
			t.Fatalf("duplicate seq %d", s.Seq)
		}
		seen[s.Seq] = true
	}
}

// TestStatsAggregation: every Stats counter but the gauge and the
// engine name is a fold of the recorded signals.
func TestStatsAggregation(t *testing.T) {
	c := NewCampaign(7, "fig6")
	// A two-turn point of a cached campaign, a cache replay, a point of
	// an uncached campaign, and a resumed checkpoint that only commits.
	c.Record(Signal{Hash: "a", Shots: 1000, Errors: 10, PrepareNS: 3e6, WallNS: 5e8, DecodeNS: 1e8})
	c.Record(Signal{Hash: "a", Shots: 1000, Errors: 20, WallNS: 5e8, DecodeNS: 2e8, CommitNS: 7e5, Done: true})
	c.Record(Signal{Hash: "b", Shots: 500, CacheHit: true, Done: true})
	c.Record(Signal{PrepareNS: 1e6, Done: true})
	c.Record(Signal{Event: EventCancel, Shots: 99})
	c.SetQueueDepth(9)
	c.SetEngine("batch")
	st := c.Stats()
	if st.ID != 7 || st.Experiment != "fig6" {
		t.Fatalf("identity: %+v", st)
	}
	if st.Shots != 2000 || st.Errors != 30 || st.Batches != 2 || st.Cancels != 1 {
		t.Fatalf("counters: %+v", st)
	}
	if st.CacheHits != 1 || st.CacheMisses != 1 || st.PointsDone != 3 {
		t.Fatalf("cache/points: %+v", st)
	}
	if st.PrepareNS != 4e6 || st.WallNS != 1e9 || st.DecodeNS != 3e8 || st.CommitNS != 7e5 {
		t.Fatalf("set-up %d, run %d, decode %d, commit %d ns", st.PrepareNS, st.WallNS, st.DecodeNS, st.CommitNS)
	}
	// Engine throughput: the engines' shots over summed engine wall
	// time (1s here). The cache replay's 500 shots are no engine's, and
	// neither it nor set-up moves the rate base.
	if st.ShotsPerSec != 2000 {
		t.Fatalf("shots/s = %v, want 2000", st.ShotsPerSec)
	}
	if st.QueueDepth != 9 || st.Engine != "batch" {
		t.Fatalf("gauge/engine: %+v", st)
	}
	if st.Done {
		t.Fatal("done before Finish")
	}
	c.Finish()
	if !c.Stats().Done {
		t.Fatal("Finish not visible in stats")
	}
}

func TestRegistryLifecycle(t *testing.T) {
	r := NewRegistry()
	a := r.New("fig5", nil)
	b := r.New("fig6", nil)
	if a.ID() != 1 || b.ID() != 2 {
		t.Fatalf("ids %d, %d", a.ID(), b.ID())
	}
	if got := r.Active(); len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatalf("active = %v", got)
	}
	if c, ok := r.Get(1); !ok || c != a {
		t.Fatal("Get missed an active campaign")
	}
	r.Finish(a)
	if !a.Done() {
		t.Fatal("Finish did not mark the campaign done")
	}
	if got := r.Active(); len(got) != 1 || got[0] != b {
		t.Fatalf("active after finish = %v", got)
	}
	// Finished campaigns stay queryable through the recent tail.
	if c, ok := r.Get(1); !ok || c != a {
		t.Fatal("finished campaign not found in recent tail")
	}
	if _, ok := r.Get(99); ok {
		t.Fatal("unknown id found")
	}
}

// TestRegistryCountsFoldTurns: the registry's Counts are the sum of
// its campaigns' turn records — the same shots their Stats count, a
// cancelled campaign's included — and the campaigns it issued.
func TestRegistryCountsFoldTurns(t *testing.T) {
	r := NewRegistry()
	a, b := r.New("fig5", nil), r.New("fig5", nil)
	a.Record(Signal{Hash: "x", Shots: 300, WallNS: 1})
	a.Record(Signal{Hash: "x", Shots: 200, WallNS: 1, Done: true})
	a.Record(Signal{Hash: "y", Shots: 400, CacheHit: true, Done: true})
	b.Record(Signal{Hash: "z", Shots: 100, WallNS: 1})
	b.Record(Signal{Key: "z", Shots: 100, Event: EventCancel})
	r.Finish(b)
	got := r.Counts()
	want := Counts{Campaigns: 2, Active: 1, PointsComputed: 1, PointsCached: 1, Shots: 600}
	if got != want {
		t.Fatalf("counts = %+v, want %+v", got, want)
	}
	if sum := a.Stats().Shots + b.Stats().Shots; sum != got.Shots {
		t.Fatalf("campaign stats count %d shots, registry %d", sum, got.Shots)
	}
	// A standalone campaign folds into no registry.
	NewCampaign(9, "fig5").Record(Signal{Shots: 50, Done: true})
	if r.Counts() != got {
		t.Fatal("a standalone campaign moved the registry's counts")
	}

	// Campaigns recording at once, read while they record, fold every
	// turn exactly once.
	var wg sync.WaitGroup
	const campaigns, each = 4, 200
	for i := 0; i < campaigns; i++ {
		c := r.New("fig5", nil)
		wg.Add(2)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				c.Record(Signal{Hash: "h", Shots: 2, WallNS: 1, Done: true})
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				r.Counts()
				c.Stats()
			}
		}()
	}
	wg.Wait()
	want.Campaigns, want.Active = 2+campaigns, 1+campaigns
	want.PointsComputed += campaigns * each
	want.Shots += 2 * campaigns * each
	if got := r.Counts(); got != want {
		t.Fatalf("counts after concurrent campaigns = %+v, want %+v", got, want)
	}
}

// TestRegistryRecentTailReleasesRotatedOut pins what the tail keeps
// reachable, not just what Get finds: a rotated-out campaign must be
// collectable at once, not parked in the tail's backing array until
// append happens to outgrow it.
func TestRegistryRecentTailReleasesRotatedOut(t *testing.T) {
	r := NewRegistry()
	first := r.New("e", nil)
	r.Finish(first)
	gone := weak.Make(first)
	first = nil
	for i := 0; i < keepRecent+1; i++ {
		r.Finish(r.New("e", nil))
	}
	if len(r.campaigns) != keepRecent {
		t.Fatalf("tail holds %d campaigns, want %d", len(r.campaigns), keepRecent)
	}
	runtime.GC()
	if gone.Value() != nil {
		t.Fatal("rotated-out campaign is still reachable from the registry")
	}
	runtime.KeepAlive(r)
}

func TestRegistryRecentTailBounded(t *testing.T) {
	r := NewRegistry()
	first := r.New("e", nil)
	r.Finish(first)
	for i := 0; i < keepRecent; i++ {
		r.Finish(r.New("e", nil))
	}
	if _, ok := r.Get(first.ID()); ok {
		t.Fatal("oldest finished campaign should have rotated out")
	}
	if c, ok := r.Get(2); !ok || c.ID() != 2 {
		t.Fatal("recent campaign inside the tail bound not found")
	}
}

// TestRegistryByTrace: the one table answers lookups by trace id too —
// live and from the recent tail — and forgets a recorder with its
// campaign.
func TestRegistryByTrace(t *testing.T) {
	r := NewRegistry()
	rec := trace.New("n")
	first := r.New("e", rec)
	r.New("e", nil)
	if first.Recorder() != rec || r.ByTrace(rec.TraceID()) != rec {
		t.Fatal("trace lookup failed while live")
	}
	r.Finish(first)
	if r.ByTrace(rec.TraceID()) != rec {
		t.Fatal("trace lookup failed from the recent tail")
	}
	if r.ByTrace(trace.NewTraceID()) != nil {
		t.Fatal("unknown trace id found")
	}
	for i := 0; i < keepRecent; i++ {
		r.Finish(r.New("e", nil))
	}
	if r.ByTrace(rec.TraceID()) != nil {
		t.Fatal("rotated-out campaign still answers for its trace")
	}
}
