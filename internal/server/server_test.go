package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"radqec/internal/client"
	"radqec/internal/exp"
	"radqec/internal/store"
)

// seed builds the request's optional seed field.
func seed(v uint64) *uint64 { return &v }

// newTestServer builds a server with a 4-worker pool over a temp store
// and an httptest frontend.
func newTestServer(t *testing.T) (*Server, *httptest.Server, *store.Store) {
	t.Helper()
	return newTestServerWorkers(t, 4)
}

// newTestServerWorkers is newTestServer with the pool size given.
func newTestServerWorkers(t *testing.T, workers int) (*Server, *httptest.Server, *store.Store) {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Store: st, Workers: workers})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		st.Close()
	})
	return srv, ts, st
}

// runDirect runs the named experiment as a library call: the table a
// daemon campaign with the same config must stream.
func runDirect(t *testing.T, name string, cfg exp.Config) *exp.Table {
	t.Helper()
	e, ok := exp.Find(name)
	if !ok {
		t.Fatalf("no experiment %q", name)
	}
	tab, err := e.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// submit posts a campaign through the typed client and returns the
// decoded stream records.
func submit(t *testing.T, ts *httptest.Server, req CampaignRequest) (points []exp.PointRecord, table exp.TableRecord) {
	t.Helper()
	stream, err := client.New(ts.URL, ts.Client()).SubmitCampaign(context.Background(), req, client.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	sawTable := false
	for {
		rec, err := stream.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case rec.Point != nil:
			points = append(points, *rec.Point)
		case rec.Table != nil:
			table = *rec.Table
			sawTable = true
		case rec.Err != nil:
			t.Fatalf("campaign failed mid-stream: %+v", *rec.Err)
		}
	}
	if !sawTable {
		t.Fatal("stream ended without a table record")
	}
	return points, table
}

func metricValue(t *testing.T, ts *httptest.Server, name string) float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var v float64
		if n, _ := fmt.Sscanf(sc.Text(), "radqecd_"+name+" %g", &v); n == 1 {
			return v
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}

// TestCampaignStreamMatchesDirectRun: the daemon's streamed table for
// a campaign equals a direct library run with the same config, and a
// warm re-submission replays entirely from the store without invoking
// the engines.
func TestCampaignStreamMatchesDirectRun(t *testing.T) {
	_, ts, _ := newTestServer(t)
	req := CampaignRequest{Experiment: "threshold", Shots: 192, Seed: seed(31)}

	ref := runDirect(t, "threshold", exp.Config{Shots: 192, Seed: 31})

	points, table := submit(t, ts, req)
	if len(points) != 15 { // 5 phys rates x 3 distances
		t.Fatalf("streamed %d points", len(points))
	}
	if table.Title != ref.Title || !reflect.DeepEqual(table.Rows, ref.Rows) || !reflect.DeepEqual(table.Notes, ref.Notes) {
		t.Fatalf("streamed table diverged:\n%+v\nvs\n%+v", table, ref)
	}
	for _, p := range points {
		if p.Cached {
			t.Fatalf("cold run served cached point %s", p.Key)
		}
	}
	computed := metricValue(t, ts, "points_computed_total")
	if computed != 15 {
		t.Fatalf("points_computed_total = %v", computed)
	}
	// Warm re-submission: identical table, zero engine work.
	points2, table2 := submit(t, ts, req)
	if !reflect.DeepEqual(table2.Rows, table.Rows) {
		t.Fatal("warm table diverged from cold table")
	}
	for _, p := range points2 {
		if !p.Cached {
			t.Fatalf("warm run recomputed point %s", p.Key)
		}
	}
	if got := metricValue(t, ts, "points_computed_total"); got != computed {
		t.Fatalf("warm run advanced points_computed_total: %v -> %v", computed, got)
	}
	if got := metricValue(t, ts, "points_cached_total"); got != 15 {
		t.Fatalf("points_cached_total = %v", got)
	}
}

func TestCampaignValidation(t *testing.T) {
	_, ts, _ := newTestServer(t)
	for name, req := range map[string]CampaignRequest{
		"experiment": {Experiment: "nope"},
		"engine":     {Experiment: "fig5", Engine: "warp"},
		// The removed scalar engine and the alias of the default.
		"engine frame": {Experiment: "fig5", Engine: "frame"},
		"engine auto":  {Experiment: "fig5", Engine: "auto"},
		"ci":           {Experiment: "fig5", CI: 0.7},
		"rounds":       {Experiment: "fig5", Rounds: 1},
		"p":            {Experiment: "fig5", P: 1.5},
		// Just over the caps on the inputs that size a campaign.
		"ns cap":        {Experiment: "fig5", Shots: 1, NS: exp.MaxNS + 1},
		"rounds cap":    {Experiment: "fig5", Shots: 1, Rounds: exp.MaxRounds + 1},
		"shots cap":     {Experiment: "fig5", Shots: exp.MaxShots + 1},
		"maxshots cap":  {Experiment: "fig5", Shots: 1, CI: 0.01, MaxShots: exp.MaxShots + 1},
		"ci worst case": {Experiment: "fig5", Shots: 1, CI: 1e-6},
		// Removed: its table was fig8's grid run a second time.
		"fig8summary": {Experiment: "fig8summary"},
	} {
		body, _ := json.Marshal(req)
		resp, msg := doRaw(t, ts, http.MethodPost, "/v1/campaigns", string(body), nil)
		var env envelope
		if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(msg, &env) != nil || env.Error.Code != codeInvalidArgument {
			t.Errorf("%s: status = %d, body %s; want 400 invalid_argument", name, resp.StatusCode, msg)
		}
		if req.Engine != "" && !strings.Contains(env.Error.Message, "[tableau batch]") {
			t.Errorf("%s: message %q does not name the engines [tableau batch]", name, env.Error.Message)
		}
	}
	// Unknown body fields are rejected by name, catching client typos
	// like "shot" for "shots" that would silently fall back to defaults
	// — and the removed "engine_width" and "decoder", which no longer
	// select anything (every campaign decodes with MWPM, so even
	// "mwpm" is refused).
	for field, body := range map[string]string{
		"shot":         `{"experiment":"fig5","shot":3}`,
		"engine_width": `{"experiment":"fig5","engine_width":"64"}`,
		"decoder":      `{"experiment":"fig5","decoder":"mwpm"}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), field) {
			t.Errorf("unknown field %q: status = %d, body %s; want a 400 naming it", field, resp.StatusCode, msg)
		}
	}
}

// TestCampaignFieldErrorsNameTheField: one value outside the campaign
// domain per request field answers 400 invalid_argument with
// exp.Config.Validate's message, which starts with the field's name —
// the same message the CLI prints behind the flag's dash.
func TestCampaignFieldErrorsNameTheField(t *testing.T) {
	_, ts, _ := newTestServer(t)
	for field, value := range map[string]string{
		"engine":   `"warp"`,
		"shots":    `-1`,
		"p":        `2`,
		"ns":       `-1`,
		"rounds":   `1`,
		"workers":  `-1`,
		"ci":       `0.5`,
		"maxshots": `-1`,
	} {
		body := `{"experiment":"fig5","` + field + `":` + value + `}`
		resp, msg := doRaw(t, ts, http.MethodPost, "/v1/campaigns", body, nil)
		var env envelope
		if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(msg, &env) != nil ||
			env.Error.Code != codeInvalidArgument || !strings.HasPrefix(env.Error.Message, field+" ") {
			t.Errorf("%s: status = %d, body %s; want 400 invalid_argument naming %s", body, resp.StatusCode, msg, field)
		}
	}
}

// TestRequestSeedDefaultsToCLIDefault: an omitted seed matches the
// CLI's -seed default (1), while an explicit zero stays zero.
func TestRequestSeedDefaultsToCLIDefault(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	if got := s.campaignConfig(CampaignRequest{Experiment: "fig5"}).Seed; got != 1 {
		t.Fatalf("omitted seed = %d, want the CLI default 1", got)
	}
	if got := s.campaignConfig(CampaignRequest{Experiment: "fig5", Seed: seed(0)}).Seed; got != 0 {
		t.Fatalf("explicit zero seed = %d, want 0", got)
	}
}

func TestExperimentsEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []experimentInfo
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != len(exp.Experiments()) {
		t.Fatalf("experiments = %d", len(list))
	}
}

func TestCacheEndpoints(t *testing.T) {
	_, ts, st := newTestServer(t)
	submit(t, ts, CampaignRequest{Experiment: "threshold", Shots: 64, Seed: seed(5)})
	if st.Stats().Commits != 15 {
		t.Fatalf("commits = %d", st.Stats().Commits)
	}

	resp, err := http.Get(ts.URL + "/v1/cache")
	if err != nil {
		t.Fatal(err)
	}
	var stats store.Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Commits != 15 {
		t.Fatalf("stats over HTTP = %+v", stats)
	}

	resp, err = http.Get(ts.URL + "/v1/cache/entries")
	if err != nil {
		t.Fatal(err)
	}
	var entries []store.Entry
	if err := json.NewDecoder(resp.Body).Decode(&entries); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(entries) != 15 || entries[0].Key == "" {
		t.Fatalf("entries = %d, first = %+v", len(entries), entries[0])
	}

	// Invalidate one point; the next submission recomputes exactly it.
	doReq := func(method, path string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp = doReq(http.MethodDelete, "/v1/cache/entries/"+entries[0].Hash)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("invalidate status = %d", resp.StatusCode)
	}
	points, _ := submit(t, ts, CampaignRequest{Experiment: "threshold", Shots: 64, Seed: seed(5)})
	var recomputed int
	for _, p := range points {
		if !p.Cached {
			recomputed++
		}
	}
	if recomputed != 1 {
		t.Fatalf("recomputed %d points after one invalidation", recomputed)
	}

	// Compact, then clear.
	resp = doReq(http.MethodPost, "/v1/cache:compact")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compact status = %d", resp.StatusCode)
	}
	resp = doReq(http.MethodDelete, "/v1/cache")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clear status = %d", resp.StatusCode)
	}
	if st.Stats().Commits != 0 {
		t.Fatal("clear left commits behind")
	}
}

func TestNoCacheRequestBypassesStore(t *testing.T) {
	_, ts, st := newTestServer(t)
	submit(t, ts, CampaignRequest{Experiment: "threshold", Shots: 64, Seed: seed(5), NoCache: true})
	if got := st.Stats().Commits; got != 0 {
		t.Fatalf("no_cache campaign committed %d points", got)
	}
	points, _ := submit(t, ts, CampaignRequest{Experiment: "threshold", Shots: 64, Seed: seed(5)})
	for _, p := range points {
		if p.Cached {
			t.Fatal("no_cache campaign warmed the store")
		}
	}
}

func TestHealthz(t *testing.T) {
	_, ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Status string `json:"status"`
		Store  bool   `json:"store"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || !h.Store {
		t.Fatalf("health = %+v", h)
	}
}

// TestConcurrentCampaignsShareThePool: several clients at once all
// complete and return correct, identical tables for identical
// requests.
func TestConcurrentCampaignsShareThePool(t *testing.T) {
	_, ts, _ := newTestServer(t)
	req := CampaignRequest{Experiment: "threshold", Shots: 128, Seed: seed(77)}
	type out struct {
		rows [][]string
	}
	results := make(chan out, 4)
	for i := 0; i < 4; i++ {
		go func() {
			_, table := submit(t, ts, req)
			results <- out{rows: table.Rows}
		}()
	}
	var first [][]string
	for i := 0; i < 4; i++ {
		select {
		case r := <-results:
			if first == nil {
				first = r.rows
			} else if !reflect.DeepEqual(first, r.rows) {
				t.Fatal("concurrent identical campaigns returned different tables")
			}
		case <-time.After(60 * time.Second):
			t.Fatal("concurrent campaigns timed out")
		}
	}
}

// firstFlush records what the client has been sent when the handler
// first flushes.
type firstFlush struct {
	*httptest.ResponseRecorder
	flushed bool
	id      string
	body    int
}

func (f *firstFlush) Flush() {
	if !f.flushed {
		f.flushed = true
		f.id = f.Header().Get("X-Radqec-Campaign-Id")
		f.body = f.Body.Len()
	}
	f.ResponseRecorder.Flush()
}

// TestCampaignIDFlushedWithSubmission: the response headers — the id a
// client cancels and follows signals by — reach the wire when the
// campaign is accepted, before any point record, so a campaign queued
// behind another's long batch can still be cancelled.
func TestCampaignIDFlushedWithSubmission(t *testing.T) {
	srv, _, _ := newTestServer(t)
	body, err := json.Marshal(CampaignRequest{Experiment: "threshold", Shots: 64, Seed: seed(3)})
	if err != nil {
		t.Fatal(err)
	}
	w := &firstFlush{ResponseRecorder: httptest.NewRecorder()}
	srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/campaigns", bytes.NewReader(body)))
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"type":"table"`) {
		t.Fatalf("campaign did not complete: %d %s", w.Code, w.Body)
	}
	if !w.flushed || w.id == "" || w.body != 0 {
		t.Errorf("first flush: happened=%v campaign id %q after %d body bytes; want the id with no body yet", w.flushed, w.id, w.body)
	}
}

// flushCounter is a ResponseWriter that records, at every Flush, how
// many NDJSON records had been written.
type flushCounter struct {
	*httptest.ResponseRecorder
	flushedAt []int
}

func (f *flushCounter) Flush() {
	f.flushedAt = append(f.flushedAt, bytes.Count(f.Body.Bytes(), []byte{'\n'}))
	f.ResponseRecorder.Flush()
}

// serveCampaign runs one campaign through the handler into a
// flushCounter and returns it with the stream's records.
func serveCampaign(t *testing.T, srv *Server, body string) (*flushCounter, []string) {
	t.Helper()
	w := &flushCounter{ResponseRecorder: httptest.NewRecorder()}
	srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/campaigns", strings.NewReader(body)))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	return w, strings.Split(strings.TrimSuffix(w.Body.String(), "\n"), "\n")
}

// comparableRecords strips the fields a replay may change, cached and
// elapsed_ms, and returns the records sorted.
func comparableRecords(t *testing.T, lines []string) []string {
	t.Helper()
	out := make([]string, len(lines))
	for i, l := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(l), &m); err != nil {
			t.Fatalf("record %d: %v: %s", i, err, l)
		}
		delete(m, "cached")
		delete(m, "elapsed_ms")
		b, _ := json.Marshal(m)
		out[i] = string(b)
	}
	slices.Sort(out)
	return out
}

// TestCampaignReplayFlushesPerBurst pins the stream's burst rule on a
// fully cached fig5 (160 points and a table): the first record is
// flushed alone, later records flush once per drained burst rather
// than once each, and the replayed stream carries the cold stream's
// records.
func TestCampaignReplayFlushesPerBurst(t *testing.T) {
	srv, _, _ := newTestServer(t)
	const body = `{"experiment":"fig5","shots":512,"seed":7}`
	_, cold := serveCampaign(t, srv, body)
	w, warm := serveCampaign(t, srv, body)
	if len(warm) != 161 {
		t.Fatalf("replay streamed %d records, want 161", len(warm))
	}
	if got := srv.tele.Counts().PointsCached; got != 160 {
		t.Fatalf("replay served %d cached points, want 160", got)
	}
	// The submission flushes the headers, then the first record goes
	// out alone.
	if len(w.flushedAt) < 2 || w.flushedAt[0] != 0 || w.flushedAt[1] != 1 {
		t.Fatalf("records written at each flush: %v, want the headers then the first record alone", w.flushedAt)
	}
	if n := len(w.flushedAt); n > 16 || w.flushedAt[n-1] != len(warm) {
		t.Fatalf("%d flushes for %d records (records written at each: %v), want at most 16 and the last after the table",
			n, len(warm), w.flushedAt)
	}
	if !slices.Equal(comparableRecords(t, warm), comparableRecords(t, cold)) {
		t.Fatal("replayed records differ from the cold stream's")
	}
}
