package server

// Chaos suite for the daemon: campaign cancellation mid-stream with
// byte-identical resume, worker panics that fail one campaign while
// the daemon keeps serving, and degraded-store health reporting.

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"radqec/internal/client"
	"radqec/internal/exp"
	"radqec/internal/faultinject"
	"radqec/internal/sweep"
	"radqec/internal/telemetry"
)

// startCampaign submits a campaign through the typed client and
// returns the live stream (records still arriving); detach=false maps
// to the old ?detach=0 query.
func startCampaign(t *testing.T, ts *httptest.Server, req CampaignRequest, detach bool) *client.CampaignStream {
	t.Helper()
	opts := client.SubmitOptions{}
	if !detach {
		opts.Detach = &detach
	}
	stream, err := client.New(ts.URL, ts.Client()).SubmitCampaign(context.Background(), req, opts)
	if err != nil {
		t.Fatal(err)
	}
	return stream
}

// drainStream reads a campaign stream to EOF and returns its records.
func drainStream(t *testing.T, stream *client.CampaignStream) []client.Record {
	t.Helper()
	defer stream.Close()
	var recs []client.Record
	for {
		rec, err := stream.Next()
		if errors.Is(err, io.EOF) {
			return recs
		}
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
}

// TestChaosDeleteCancelsAndResumesByteIdentical: DELETE on a running
// campaign ends its stream with a cancelled error record, and an
// identical resubmission resumes from the flushed checkpoints to the
// exact table a never-cancelled run produces.
func TestChaosDeleteCancelsAndResumesByteIdentical(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	_, ts, _ := newTestServer(t)
	req := CampaignRequest{Experiment: "threshold", Shots: 384, Seed: seed(31)}
	ref := runDirect(t, "threshold", exp.Config{Shots: 384, Seed: 31})
	// Stall every store write so the campaign is still mid-flight when
	// the DELETE lands; the stall changes timing only, never results.
	if err := faultinject.Enable(faultinject.StoreWriteSlow, "sleep(15ms)"); err != nil {
		t.Fatal(err)
	}
	stream := startCampaign(t, ts, req, true)
	if err := client.New(ts.URL, ts.Client()).Cancel(context.Background(), stream.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	recs := drainStream(t, stream)
	if len(recs) == 0 {
		t.Fatal("cancelled stream carried no records")
	}
	last := recs[len(recs)-1]
	if last.Err == nil || !last.Err.Cancelled {
		t.Fatalf("cancelled stream ended with %+v, want a cancelled error record", last)
	}
	if got := metricValue(t, ts, "campaigns_cancelled_total"); got != 1 {
		t.Fatalf("campaigns_cancelled_total = %v", got)
	}
	if got := metricValue(t, ts, "campaign_errors_total"); got != 0 {
		t.Fatalf("cancellation counted as a campaign error: %v", got)
	}
	// Resubmission resumes from the flushed checkpoints and lands on
	// the byte-identical table of an uninterrupted run.
	faultinject.Reset()
	points, table := submit(t, ts, req)
	if len(points) != 15 {
		t.Fatalf("resumed run streamed %d points", len(points))
	}
	if table.Title != ref.Title || !reflect.DeepEqual(table.Rows, ref.Rows) || !reflect.DeepEqual(table.Notes, ref.Notes) {
		t.Fatalf("resumed table diverged from the uninterrupted reference:\n%+v\nvs\n%+v", table, ref)
	}
}

// engineShots reads a finished campaign's signals snapshot and returns
// the shots of its engine turns (neither a cache hit nor a lifecycle
// event) and its closing stats record.
func engineShots(t *testing.T, ts *httptest.Server, id int64) (int64, telemetry.Stats) {
	t.Helper()
	sig, err := client.New(ts.URL, ts.Client()).Signals(context.Background(), id, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer sig.Close()
	var shots int64
	var next uint64
	for {
		rec, err := sig.Next()
		if err != nil {
			t.Fatalf("signals of campaign %d: %v", id, err)
		}
		if rec.Stats != nil {
			if !rec.Stats.Done {
				t.Fatalf("campaign %d not finished: %+v", id, *rec.Stats)
			}
			return shots, *rec.Stats
		}
		if rec.Signal.Seq != next {
			t.Fatalf("campaign %d: signal %d after %d, the ring dropped turns", id, rec.Signal.Seq, next)
		}
		next++
		if rec.Signal.Event == "" && !rec.Signal.CacheHit {
			shots += int64(rec.Signal.Shots)
		}
	}
}

// TestChaosCancelledShotsCountOnce: the daemon's shot counter is the
// campaigns' own count. A fig5 campaign cancelled mid-run counts, in
// radqecd_shots_computed_total, exactly the engine shots its signals and
// stats record carry; its resubmission adds exactly its own, and every
// one of its 160 points counts as computed or cached.
func TestChaosCancelledShotsCountOnce(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	_, ts, _ := newTestServer(t)
	cl := client.New(ts.URL, ts.Client())
	req := CampaignRequest{Experiment: "fig5", Shots: 1024, Seed: seed(23)}
	// Stall every store write so the campaign is still mid-flight when
	// the DELETE lands.
	if err := faultinject.Enable(faultinject.StoreWriteSlow, "sleep(15ms)"); err != nil {
		t.Fatal(err)
	}
	stream := startCampaign(t, ts, req, true)
	follow, err := cl.Signals(context.Background(), stream.ID, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	for ran := false; !ran; {
		rec, err := follow.Next()
		if err != nil {
			t.Fatalf("campaign ended before an engine turn: %v", err)
		}
		ran = rec.Signal != nil && rec.Signal.Event == "" && !rec.Signal.CacheHit && rec.Signal.Shots > 0
	}
	follow.Close()
	if err := cl.Cancel(context.Background(), stream.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	recs := drainStream(t, stream)
	if last := recs[len(recs)-1]; last.Err == nil || !last.Err.Cancelled {
		t.Fatalf("cancelled stream ended with %+v, want a cancelled error record", last)
	}
	turns, st := engineShots(t, ts, stream.ID)
	if st.PointsDone >= 160 {
		t.Fatalf("the campaign finished all %d points before the cancel", st.PointsDone)
	}
	got := int64(metricValue(t, ts, "shots_computed_total"))
	if turns <= 0 || got != turns || got != st.Shots {
		t.Fatalf("shots_computed_total %d, the cancelled campaign's engine turns %d, its stats record %d: want one positive number",
			got, turns, st.Shots)
	}

	faultinject.Reset()
	points := func() int64 {
		return int64(metricValue(t, ts, "points_computed_total") + metricValue(t, ts, "points_cached_total"))
	}
	pointsBefore := points()
	id, err := strconv.ParseInt(submitForID(t, ts, req), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	turns2, st2 := engineShots(t, ts, id)
	if delta := int64(metricValue(t, ts, "shots_computed_total")) - got; delta != turns2 || delta != st2.Shots {
		t.Fatalf("resubmission moved shots_computed_total by %d; its engine turns ran %d, its stats record says %d",
			delta, turns2, st2.Shots)
	}
	if delta := points() - pointsBefore; delta != 160 {
		t.Fatalf("resubmission moved points computed + cached by %d, want 160", delta)
	}
}

// TestChaosLogicalLayerRunsInThePool: the logical experiment's layer
// runs as sweep points like every other experiment's shots. A DELETE
// that lands while a logical-layer point is running ends the stream
// with a cancelled error record and no table, and counts one
// cancellation; a completed default campaign counts all 14 of its
// points (2 physical, 12 logical) and their 28 000 shots.
func TestChaosLogicalLayerRunsInThePool(t *testing.T) {
	_, ts, _ := newTestServer(t)
	cl := client.New(ts.URL, ts.Client())
	stream := startCampaign(t, ts, CampaignRequest{Experiment: "logical", Shots: 1 << 18, Seed: seed(3)}, true)
	follow, err := cl.Signals(context.Background(), stream.ID, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	for ran := false; !ran; {
		rec, err := follow.Next()
		if err != nil {
			t.Fatalf("campaign ended before a logical-layer turn: %v", err)
		}
		ran = rec.Signal != nil && rec.Signal.Event == "" && rec.Signal.Shots > 0 && strings.Contains(rec.Signal.Key, "/struck")
	}
	follow.Close()
	if err := cl.Cancel(context.Background(), stream.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	recs := drainStream(t, stream)
	for _, rec := range recs[:len(recs)-1] {
		if rec.Table != nil {
			t.Fatal("cancelled logical campaign streamed its table")
		}
	}
	if last := recs[len(recs)-1]; last.Err == nil || !last.Err.Cancelled {
		t.Fatalf("cancelled stream ended with %+v, want a cancelled error record", last)
	}
	if got := metricValue(t, ts, "campaigns_cancelled_total"); got != 1 {
		t.Fatalf("campaigns_cancelled_total = %v, want 1", got)
	}

	pointsBefore := metricValue(t, ts, "points_computed_total")
	shotsBefore := metricValue(t, ts, "shots_computed_total")
	points, _ := submit(t, ts, CampaignRequest{Experiment: "logical", Seed: seed(3)})
	if len(points) != 14 {
		t.Fatalf("default logical campaign streamed %d point records, want 14", len(points))
	}
	if d := metricValue(t, ts, "points_computed_total") - pointsBefore; d != 14 {
		t.Fatalf("default logical campaign moved points_computed_total by %v, want 14", d)
	}
	if d := metricValue(t, ts, "shots_computed_total") - shotsBefore; d != 28000 {
		t.Fatalf("default logical campaign moved shots_computed_total by %v, want 28000", d)
	}
}

// TestChaosDeleteUnknownCampaign: cancelling a finished or never-known
// campaign is a 404, not a panic or a hung entry.
func TestChaosDeleteUnknownCampaign(t *testing.T) {
	_, ts, _ := newTestServer(t)
	del, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/campaigns/999", nil)
	resp, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

// TestChaosWorkerPanicFailsOneCampaignOnly: an injected worker panic
// converts into that campaign's error record — stack logged, counter
// bumped — and the daemon immediately serves the next campaign.
func TestChaosWorkerPanicFailsOneCampaignOnly(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	_, ts, _ := newTestServer(t)
	if err := faultinject.Enable(faultinject.WorkerPanic, "panic*1"); err != nil {
		t.Fatal(err)
	}
	stream := startCampaign(t, ts, CampaignRequest{Experiment: "threshold", Shots: 192, Seed: seed(31)}, true)
	recs := drainStream(t, stream)
	if len(recs) == 0 {
		t.Fatal("panicked stream carried no records")
	}
	last := recs[len(recs)-1]
	if last.Err == nil || last.Err.Cancelled {
		t.Fatalf("panicked campaign ended with %+v, want a non-cancelled error record", last)
	}
	if got := metricValue(t, ts, "worker_panics_total"); got != 1 {
		t.Fatalf("worker_panics_total = %v", got)
	}
	if faultinject.Hits(faultinject.WorkerPanic) != 1 {
		t.Fatalf("failpoint hits = %d", faultinject.Hits(faultinject.WorkerPanic))
	}
	// The daemon survives: the same request now completes, resuming
	// whatever the failed campaign managed to commit.
	points, _ := submit(t, ts, CampaignRequest{Experiment: "threshold", Shots: 192, Seed: seed(31)})
	if len(points) != 15 {
		t.Fatalf("post-panic campaign streamed %d points", len(points))
	}
	if got := metricValue(t, ts, "campaigns_active"); got != 0 {
		t.Fatalf("campaigns_active = %v after both campaigns ended", got)
	}
}

// TestChaosClientDisconnectDetachedByDefault: a vanished client does
// not cancel a detached (default) campaign — the work finishes and
// lands in the store for the next submission.
func TestChaosClientDisconnectDetachedByDefault(t *testing.T) {
	srv, ts, st := newTestServer(t)
	stream := startCampaign(t, ts, CampaignRequest{Experiment: "threshold", Shots: 192, Seed: seed(31)}, true)
	stream.Close() // client walks away mid-stream
	waitIdle(t, srv)
	if got := metricValue(t, ts, "campaigns_cancelled_total"); got != 0 {
		t.Fatalf("detached campaign cancelled on disconnect: %v", got)
	}
	if got := st.Stats().Commits; got != 15 {
		t.Fatalf("store commits = %d, want the full 15 despite the disconnect", got)
	}
}

// TestChaosClientDisconnectCancelsWithDetachOff: ?detach=0 opts the
// campaign into client-lifetime coupling — disconnect cancels it at
// the next batch boundary.
func TestChaosClientDisconnectCancelsWithDetachOff(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	srv, ts, _ := newTestServer(t)
	if err := faultinject.Enable(faultinject.StoreWriteSlow, "sleep(15ms)"); err != nil {
		t.Fatal(err)
	}
	stream := startCampaign(t, ts, CampaignRequest{Experiment: "threshold", Shots: 384, Seed: seed(31)}, false)
	stream.Close()
	waitIdle(t, srv)
	faultinject.Reset()
	if got := metricValue(t, ts, "campaigns_cancelled_total"); got != 1 {
		t.Fatalf("campaigns_cancelled_total = %v, want the disconnected campaign", got)
	}
}

// TestChaosDegradedStoreReportsAndServes: a store that exhausted its
// write retries turns /healthz "degraded" and flips the metrics gauge,
// while campaigns keep running read-through; recovery re-arms both.
func TestChaosDegradedStoreReportsAndServes(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	_, ts, st := newTestServer(t)
	submit(t, ts, CampaignRequest{Experiment: "threshold", Shots: 192, Seed: seed(31)})
	if err := faultinject.Enable(faultinject.StoreWriteError, "error"); err != nil {
		t.Fatal(err)
	}
	st.Commit("chaos-degrade", sweep.CachedPoint{Key: "chaos", Shots: 8}) // exhaust retries, degrade
	if !st.Stats().Degraded {
		t.Fatal("store did not degrade")
	}
	var health struct {
		Status        string `json:"status"`
		StoreDegraded bool   `json:"store_degraded"`
	}
	getJSON(t, ts.URL+"/healthz", &health)
	if health.Status != "degraded" || !health.StoreDegraded {
		t.Fatalf("healthz = %+v, want degraded", health)
	}
	if got := metricValue(t, ts, "store_degraded"); got != 1 {
		t.Fatalf("store_degraded = %v", got)
	}
	// Read-through: the committed campaign still replays from cache.
	points, _ := submit(t, ts, CampaignRequest{Experiment: "threshold", Shots: 192, Seed: seed(31)})
	for _, p := range points {
		if !p.Cached {
			t.Fatalf("degraded store stopped serving reads: %s recomputed", p.Key)
		}
	}
	faultinject.Reset()
	if !st.Probe() {
		t.Fatal("probe failed after the fault cleared")
	}
	getJSON(t, ts.URL+"/healthz", &health)
	if health.Status != "ok" {
		t.Fatalf("healthz after recovery = %+v", health)
	}
	if got := metricValue(t, ts, "store_recoveries_total"); got != 1 {
		t.Fatalf("store_recoveries_total = %v", got)
	}
}

// TestChaosStreamStall: a stream whose every record write stalls still
// delivers every record and the table, and a sibling campaign on the
// same 2-worker daemon still completes.
func TestChaosStreamStall(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	_, ts, _ := newTestServerWorkers(t, 2)
	req := CampaignRequest{Experiment: "threshold", Shots: 192, Seed: seed(31)}
	ref := runDirect(t, "threshold", exp.Config{Shots: 192, Seed: 31})
	if err := faultinject.Enable(faultinject.StreamStall, "sleep(10ms)"); err != nil {
		t.Fatal(err)
	}
	stalled := startCampaign(t, ts, req, true)
	sibling := startCampaign(t, ts, CampaignRequest{Experiment: "threshold", Shots: 192, Seed: seed(32)}, true)
	recs, siblingRecs := drainStream(t, stalled), drainStream(t, sibling)
	keys := map[string]bool{}
	for _, r := range recs[:len(recs)-1] {
		if r.Point == nil {
			t.Fatalf("stalled stream carried %+v before its table", r)
		}
		keys[r.Point.Key] = true
	}
	if len(recs) != 16 || len(keys) != 15 {
		t.Fatalf("stalled stream carried %d records over %d point keys, want 15 points and a table", len(recs), len(keys))
	}
	if tab := recs[len(recs)-1].Table; tab == nil || !reflect.DeepEqual(tab.Rows, ref.Rows) {
		t.Fatalf("stalled stream ended with %+v, want the reference table", recs[len(recs)-1])
	}
	if len(siblingRecs) != 16 || siblingRecs[15].Table == nil {
		t.Fatalf("sibling campaign streamed %d records, want 15 points and a table", len(siblingRecs))
	}
	if hits := faultinject.Hits(faultinject.StreamStall); hits < 32 {
		t.Fatalf("stall failpoint fired %d times, want one per record of both streams", hits)
	}
}

// TestChaosStreamDrop: a campaign whose stream drops on its first
// record still commits every point, so a resubmission is a full cache
// hit that computes nothing.
func TestChaosStreamDrop(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	srv, ts, st := newTestServer(t)
	req := CampaignRequest{Experiment: "threshold", Shots: 192, Seed: seed(31)}
	if err := faultinject.Enable(faultinject.StreamDrop, "error*1"); err != nil {
		t.Fatal(err)
	}
	if recs := drainStream(t, startCampaign(t, ts, req, true)); len(recs) != 0 {
		t.Fatalf("dropped stream carried %d records", len(recs))
	}
	waitIdle(t, srv)
	if faultinject.Hits(faultinject.StreamDrop) != 1 {
		t.Fatalf("drop failpoint fired %d times", faultinject.Hits(faultinject.StreamDrop))
	}
	if got := st.Stats().Commits; got != 15 {
		t.Fatalf("store commits = %d, want all 15 points of the dropped campaign", got)
	}
	computed := metricValue(t, ts, "points_computed_total")
	points, _ := submit(t, ts, req)
	for _, p := range points {
		if !p.Cached {
			t.Fatalf("resubmission recomputed %s", p.Key)
		}
	}
	if len(points) != 15 {
		t.Fatalf("resubmission streamed %d points", len(points))
	}
	if got := metricValue(t, ts, "points_computed_total"); got != computed {
		t.Fatalf("resubmission moved points_computed_total: %v -> %v", computed, got)
	}
}

// TestChaosFabricDuplicateSubmissionSingleFlight: the same campaign
// submitted concurrently by two clients computes every point's shots
// exactly once — the daemon's flight table deduplicates the two
// campaigns, and both tables equal a direct library run.
func TestChaosFabricDuplicateSubmissionSingleFlight(t *testing.T) {
	srv, ts, _ := newTestServer(t)
	ref := runDirect(t, "threshold", exp.Config{Shots: 192, Seed: 31})
	req := CampaignRequest{Experiment: "threshold", Shots: 192, Seed: seed(31)}

	results := make(chan exp.TableRecord, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, table := submit(t, ts, req)
			results <- table
		}()
	}
	for i := 0; i < 2; i++ {
		select {
		case table := <-results:
			if !reflect.DeepEqual(table.Rows, ref.Rows) || !reflect.DeepEqual(table.Notes, ref.Notes) {
				t.Fatalf("duplicate submission diverged:\n%+v\nvs\n%+v", table, ref)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("duplicate submissions timed out")
		}
	}
	waitIdle(t, srv)
	if got := metricValue(t, ts, "points_computed_total"); got != 15 {
		t.Fatalf("points_computed_total = %v, want exactly 15: single-flight leaked duplicate compute", got)
	}
}

// waitIdle blocks until no campaign is active.
func waitIdle(t *testing.T, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for srv.tele.Counts().Active != 0 {
		if time.Now().After(deadline) {
			t.Fatal("campaign never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}
