package server

// Two-node fabric suite: byte-identical sharded tables, cross-node
// single-flight under duplicate submission, and the chaos legs — peer
// down at submit, peer dying mid-stream, black-holed peer lookups, and
// lease expiry races. Both ring nodes run in-process on real TCP
// listeners so every cross-node call goes through the actual v1 API.

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"radqec/internal/client"
	"radqec/internal/exp"
	"radqec/internal/fabric"
	"radqec/internal/faultinject"
	"radqec/internal/store"
	"radqec/internal/sweep"
)

// sweepPoint is a synthetic committed result for lease/lookup tests.
func sweepPoint() sweep.CachedPoint {
	return sweep.CachedPoint{Key: "chaos", Shots: 8, Errors: 1, Batches: 1, Converged: true}
}

// fabricNode is one in-process ring member.
type fabricNode struct {
	srv   *Server
	ts    *httptest.Server
	st    *store.Store
	coord *fabric.Coordinator
	addr  string
}

// newFabricRing starts n daemons on real loopback listeners, each a
// member of the same static ring. The listeners are bound before any
// coordinator exists so every node knows the full address ring up
// front, exactly like a -peers flag. tune (optional) adjusts each
// node's fabric options before construction.
func newFabricRing(t *testing.T, n int, tune func(*fabric.Options)) []*fabricNode {
	t.Helper()
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		addrs[i] = l.Addr().String()
	}
	nodes := make([]*fabricNode, n)
	for i := range nodes {
		st, err := store.Open(t.TempDir(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		opts := fabric.Options{
			Self:  addrs[i],
			Peers: addrs,
			Store: st,
			// Test-speed timings: fast polls, quick failure detection,
			// but patience generous enough that a healthy (if busy)
			// owner is never taken over spuriously.
			PollInterval:     20 * time.Millisecond,
			RetryLimit:       2,
			DownFor:          2 * time.Second,
			TakeoverPatience: 15 * time.Second,
			LeaseTTL:         2 * time.Second,
		}
		if tune != nil {
			tune(&opts)
		}
		coord, err := fabric.New(opts)
		if err != nil {
			t.Fatal(err)
		}
		srv := New(Config{Store: st, Workers: 4, Fabric: coord})
		ts := &httptest.Server{Listener: listeners[i], Config: &http.Server{Handler: srv.Handler()}}
		ts.Start()
		nodes[i] = &fabricNode{srv: srv, ts: ts, st: st, coord: coord, addr: addrs[i]}
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.ts.Close()
			nd.srv.Close()
			nd.st.Close()
		}
	})
	return nodes
}

// thresholdReference runs the reference single-node computation.
func thresholdReference(t *testing.T, shots int, seedV uint64) *exp.Table {
	t.Helper()
	ref, err := exp.Threshold(exp.Config{Shots: shots, Seed: seedV})
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// assertTable fails unless the streamed table matches the reference
// byte-for-byte (titles, every row, every note).
func assertTable(t *testing.T, got exp.TableRecord, ref *exp.Table, label string) {
	t.Helper()
	if got.Title != ref.Title || !reflect.DeepEqual(got.Rows, ref.Rows) || !reflect.DeepEqual(got.Notes, ref.Notes) {
		t.Fatalf("%s: table diverged from single-node reference:\n%+v\nvs\n%+v", label, got, ref)
	}
}

// computedTotal sums radqecd_points_computed_total across the ring.
func computedTotal(t *testing.T, nodes []*fabricNode) (sum float64, each []float64) {
	t.Helper()
	for _, nd := range nodes {
		v := metricValue(t, nd.ts, "points_computed_total")
		each = append(each, v)
		sum += v
	}
	return sum, each
}

// waitRingIdle waits for every node's campaigns to drain (fan-out
// campaigns on peers can outlive the submitting client's stream by a
// beat).
func waitRingIdle(t *testing.T, nodes []*fabricNode) {
	t.Helper()
	for _, nd := range nodes {
		waitIdle(t, nd.srv)
	}
}

// TestFabricTwoNodeByteIdentical: a campaign submitted to one node of
// a two-node ring returns the byte-identical table of a single-node
// run, with the points partitioned across the ring — every point
// computed exactly once somewhere, nonzero work on both nodes, and
// nonzero remote hits flowing back.
func TestFabricTwoNodeByteIdentical(t *testing.T) {
	nodes := newFabricRing(t, 2, nil)
	ref := thresholdReference(t, 192, 31)

	points, table := submit(t, nodes[0].ts, CampaignRequest{Experiment: "threshold", Shots: 192, Seed: seed(31)})
	if len(points) != 15 {
		t.Fatalf("streamed %d points, want 15", len(points))
	}
	assertTable(t, table, ref, "two-node cold run")
	waitRingIdle(t, nodes)

	sum, each := computedTotal(t, nodes)
	if sum != 15 {
		t.Fatalf("points_computed_total across ring = %v (%v), want exactly 15 — a point was computed twice or dropped", sum, each)
	}
	for i, v := range each {
		if v == 0 {
			t.Fatalf("node %d computed no points — the ring did not shard (split %v)", i, each)
		}
	}
	if hits := metricValue(t, nodes[0].ts, "fabric_remote_hits_total"); hits == 0 {
		t.Fatal("submitting node resolved no points remotely")
	}
	if tk := metricValue(t, nodes[0].ts, "fabric_takeovers_total") + metricValue(t, nodes[1].ts, "fabric_takeovers_total"); tk != 0 {
		t.Fatalf("healthy ring recorded %v takeovers", tk)
	}

	// Warm re-submission to the OTHER node: its store holds every
	// point (own computes + fetched results), so the table replays
	// byte-identically without engine work.
	points2, table2 := submit(t, nodes[1].ts, CampaignRequest{Experiment: "threshold", Shots: 192, Seed: seed(31)})
	assertTable(t, table2, ref, "warm run on peer")
	for _, p := range points2 {
		if !p.Cached {
			t.Fatalf("warm run on peer recomputed point %s", p.Key)
		}
	}
}

// TestChaosFabricDuplicateSubmissionSingleFlight: the same campaign
// submitted concurrently to BOTH nodes computes every point's shots
// exactly once across the ring — ownership partitions the work between
// nodes, and the in-process flight table deduplicates the client and
// fan-out campaigns within each node.
func TestChaosFabricDuplicateSubmissionSingleFlight(t *testing.T) {
	nodes := newFabricRing(t, 2, nil)
	ref := thresholdReference(t, 192, 31)
	req := CampaignRequest{Experiment: "threshold", Shots: 192, Seed: seed(31)}

	type out struct {
		table exp.TableRecord
	}
	results := make(chan out, 2)
	for i := 0; i < 2; i++ {
		go func(nd *fabricNode) {
			_, table := submit(t, nd.ts, req)
			results <- out{table}
		}(nodes[i])
	}
	for i := 0; i < 2; i++ {
		select {
		case r := <-results:
			assertTable(t, r.table, ref, "duplicate submission")
		case <-time.After(60 * time.Second):
			t.Fatal("duplicate submissions timed out")
		}
	}
	waitRingIdle(t, nodes)
	sum, each := computedTotal(t, nodes)
	if sum != 15 {
		t.Fatalf("points_computed_total across ring = %v (%v), want exactly 15: cross-node single-flight leaked duplicate compute", sum, each)
	}
}

// TestChaosFabricPeerDownAtSubmit: the peer is dead before the
// campaign is even submitted. Fan-out fails and marks it down, its
// points all land on the surviving node, and the table is still
// byte-identical — just computed entirely locally. How they land is a
// race the test does not pin: points parked on the peer before the
// mark come back by takeover (fabric_takeovers_total moves), points
// placed after it are routed here by the ring directly (it does not).
func TestChaosFabricPeerDownAtSubmit(t *testing.T) {
	nodes := newFabricRing(t, 2, func(o *fabric.Options) {
		o.RetryLimit = 1
		o.TakeoverPatience = 30 * time.Second // takeover must come from death, not impatience
	})
	ref := thresholdReference(t, 128, 7)

	// Kill node 1 outright before anything is submitted.
	nodes[1].ts.CloseClientConnections()
	nodes[1].ts.Listener.Close()

	points, table := submit(t, nodes[0].ts, CampaignRequest{Experiment: "threshold", Shots: 128, Seed: seed(7)})
	if len(points) != 15 {
		t.Fatalf("streamed %d points, want 15", len(points))
	}
	assertTable(t, table, ref, "peer down at submit")
	waitIdle(t, nodes[0].srv)
	if got := metricValue(t, nodes[0].ts, "points_computed_total"); got != 15 {
		t.Fatalf("survivor computed %v points, want all 15", got)
	}
	if alive := metricValue(t, nodes[0].ts, "fabric_peers_alive"); alive != 1 {
		t.Fatalf("fabric_peers_alive = %v, want 1", alive)
	}
}

// TestChaosFabricPeerDiesMidStream: the peer accepts the fan-out and
// starts computing, then drops off the network mid-campaign. The
// survivor's lookups fail, the peer is marked down, its unfinished
// points are taken over, and the table is still byte-identical.
func TestChaosFabricPeerDiesMidStream(t *testing.T) {
	nodes := newFabricRing(t, 2, func(o *fabric.Options) {
		o.RetryLimit = 1
		o.TakeoverPatience = 30 * time.Second
	})
	ref := thresholdReference(t, 384, 31)

	// Slow the stores so the campaign is genuinely mid-flight when the
	// peer dies (timing-only fault, never results).
	t.Cleanup(faultinject.Reset)
	if err := faultinject.Enable(faultinject.StoreWriteSlow, "sleep(10ms)"); err != nil {
		t.Fatal(err)
	}
	stream := startCampaign(t, nodes[0].ts, CampaignRequest{Experiment: "threshold", Shots: 384, Seed: seed(31)}, true)
	// Let the ring genuinely interleave, then sever node 1 from the
	// network. Its in-flight campaign keeps running (and is cancelled
	// once its fan-out connection collapses); node 0 can no longer
	// reach it and must take its points over.
	time.Sleep(150 * time.Millisecond)
	nodes[1].ts.CloseClientConnections()
	nodes[1].ts.Listener.Close()

	recs := drainStream(t, stream)
	var table *exp.TableRecord
	npoints := 0
	for _, r := range recs {
		if r.Point != nil {
			npoints++
		}
		if r.Table != nil {
			table = r.Table
		}
		if r.Err != nil {
			t.Fatalf("campaign failed after peer death: %+v", *r.Err)
		}
	}
	if table == nil || npoints != 15 {
		t.Fatalf("stream after peer death: %d points, table %v", npoints, table != nil)
	}
	faultinject.Reset()
	assertTable(t, *table, ref, "peer died mid-stream")
	waitIdle(t, nodes[0].srv)
}

// TestChaosFabricLookupsBlackholed: every cross-node lookup fails (the
// fabric.peer.lookup.error failpoint) — the pathological partition
// where both nodes are up but can't see each other. Each side marks
// the other down and degrades to full local compute: double the work,
// identical bytes.
func TestChaosFabricLookupsBlackholed(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	nodes := newFabricRing(t, 2, func(o *fabric.Options) {
		o.RetryLimit = 1
	})
	ref := thresholdReference(t, 128, 7)
	if err := faultinject.Enable(faultinject.PeerLookupError, "error"); err != nil {
		t.Fatal(err)
	}
	points, table := submit(t, nodes[0].ts, CampaignRequest{Experiment: "threshold", Shots: 128, Seed: seed(7)})
	if len(points) != 15 {
		t.Fatalf("streamed %d points, want 15", len(points))
	}
	assertTable(t, table, ref, "lookups black-holed")
	waitIdle(t, nodes[0].srv)
	if got := metricValue(t, nodes[0].ts, "points_computed_total"); got != 15 {
		t.Fatalf("partitioned node computed %v points, want all 15 locally", got)
	}
	if tk := metricValue(t, nodes[0].ts, "fabric_takeovers_total"); tk == 0 {
		t.Fatal("no takeovers under a full lookup blackhole")
	}
}

// TestChaosFabricLeaseExpiryRace: two nodes race for the same point's
// compute lease through the claim endpoint. The loser backs off while
// the lease is live, wins after it expires, and a committed result
// ends the race for everyone.
func TestChaosFabricLeaseExpiryRace(t *testing.T) {
	_, ts, st := newTestServer(t)
	cl := client.New(ts.URL, ts.Client())
	ctx := context.Background()
	const hash = "deadbeef-lease-race"

	claim, err := cl.ClaimPoint(ctx, hash, "node-a", 80*time.Millisecond)
	if err != nil || claim.Status != client.ClaimGranted {
		t.Fatalf("first claim = %+v, %v; want granted", claim, err)
	}
	claim, err = cl.ClaimPoint(ctx, hash, "node-b", 80*time.Millisecond)
	if err != nil || claim.Status != client.ClaimHeld || claim.Holder != "node-a" {
		t.Fatalf("rival claim = %+v, %v; want held by node-a", claim, err)
	}
	// The holder renews re-entrantly.
	claim, err = cl.ClaimPoint(ctx, hash, "node-a", 80*time.Millisecond)
	if err != nil || claim.Status != client.ClaimGranted {
		t.Fatalf("renewal = %+v, %v; want granted", claim, err)
	}
	// After expiry the rival takes the lease.
	time.Sleep(120 * time.Millisecond)
	claim, err = cl.ClaimPoint(ctx, hash, "node-b", 80*time.Millisecond)
	if err != nil || claim.Status != client.ClaimGranted {
		t.Fatalf("post-expiry claim = %+v, %v; want granted", claim, err)
	}
	// A committed result trumps every lease: claims now answer
	// "committed" and the result is fetchable.
	st.Commit(hash, sweepPoint())
	claim, err = cl.ClaimPoint(ctx, hash, "node-a", 80*time.Millisecond)
	if err != nil || claim.Status != client.ClaimCommitted {
		t.Fatalf("claim on committed point = %+v, %v; want committed", claim, err)
	}
	if _, ok, err := cl.LookupPoint(ctx, hash, 0); err != nil || !ok {
		t.Fatalf("committed point not fetchable: ok=%v err=%v", ok, err)
	}
	if got := metricValue(t, ts, "fabric_leases_denied_total"); got != 1 {
		t.Fatalf("fabric_leases_denied_total = %v, want 1", got)
	}
}

// TestFabricPointLookupLongPoll: ?wait holds the lookup open until the
// point commits, so a watcher learns of a commit within the poll
// window rather than a full interval later.
func TestFabricPointLookupLongPoll(t *testing.T) {
	_, ts, st := newTestServer(t)
	cl := client.New(ts.URL, ts.Client())
	const hash = "deadbeef-longpoll"

	// Cold miss without wait: immediate not_found.
	if _, ok, err := cl.LookupPoint(context.Background(), hash, 0); err != nil || ok {
		t.Fatalf("cold lookup: ok=%v err=%v", ok, err)
	}
	// Commit mid-wait: the long poll returns the point early.
	go func() {
		time.Sleep(80 * time.Millisecond)
		st.Commit(hash, sweepPoint())
	}()
	start := time.Now()
	cp, ok, err := cl.LookupPoint(context.Background(), hash, 5*time.Second)
	if err != nil || !ok {
		t.Fatalf("long-poll lookup: ok=%v err=%v", ok, err)
	}
	if cp.Key != "chaos" {
		t.Fatalf("long-poll returned wrong point: %+v", cp)
	}
	if d := time.Since(start); d >= 5*time.Second {
		t.Fatalf("long poll did not return early (took %v)", d)
	}
}
