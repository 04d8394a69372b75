package server

// Tests for the observability surface: the per-campaign trace
// endpoints (NDJSON and Chrome trace-event form), the request field as
// the one sampling switch, structured panic logging, OpenMetrics exemplar
// negotiation, the signals stream under mid-stream cancellation, and
// the gated pprof mount.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"radqec/internal/client"
	"radqec/internal/faultinject"
	"radqec/internal/store"
	"radqec/internal/trace"
)

// submitTraced posts a campaign with sampling on, drains the stream,
// and returns the assigned campaign and trace ids from the response
// headers.
func submitTraced(t *testing.T, ts *httptest.Server, req CampaignRequest) (id int64, traceID string) {
	t.Helper()
	req.TraceSample = "on"
	stream, err := client.New(ts.URL, ts.Client()).SubmitCampaign(context.Background(), req, client.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	drainStream(t, stream)
	if stream.TraceID == "" {
		t.Fatal("sampled campaign response carries no X-Radqec-Trace-Id header")
	}
	return stream.ID, stream.TraceID
}

// spansByID indexes a span slice by span id, failing on duplicates.
func spansByID(t *testing.T, spans []trace.Span) map[string]trace.Span {
	t.Helper()
	byID := make(map[string]trace.Span, len(spans))
	for _, s := range spans {
		if _, dup := byID[s.ID]; dup {
			t.Fatalf("duplicate span id %s in trace", s.ID)
		}
		byID[s.ID] = s
	}
	return byID
}

// assertParentLinks checks the trace is one tree: every span carries
// the same trace id, exactly one root (the campaign span) has no
// parent, and every other span's parent exists.
func assertParentLinks(t *testing.T, spans []trace.Span, traceID string) {
	t.Helper()
	byID := spansByID(t, spans)
	roots := 0
	for _, s := range spans {
		if s.Trace != traceID {
			t.Fatalf("span %s (%s) has trace id %s, want %s", s.ID, s.Name, s.Trace, traceID)
		}
		if s.Parent == "" {
			if s.Name != trace.SpanCampaign {
				t.Fatalf("parentless span %s is a %s, want the campaign root", s.ID, s.Name)
			}
			roots++
			continue
		}
		if _, ok := byID[s.Parent]; !ok {
			t.Fatalf("span %s (%s) has dangling parent %s", s.ID, s.Name, s.Parent)
		}
	}
	if roots != 1 {
		t.Fatalf("trace has %d parentless roots, want exactly 1", roots)
	}
}

// TestCampaignTraceEndpoint: a sampled campaign's spans replay over
// GET /v1/campaigns/{id}/trace as one well-formed tree — campaign →
// point → {chunk-run, decode, store-commit} — reachable by trace id
// too, and renderable as Chrome trace-event JSON.
func TestCampaignTraceEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t)
	id, traceID := submitTraced(t, ts, CampaignRequest{Experiment: "threshold", Shots: 128, Seed: seed(7)})

	cl := client.New(ts.URL, ts.Client())
	spans, err := cl.TraceSpans(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("sampled campaign recorded no spans")
	}
	assertParentLinks(t, spans, traceID)
	byID := spansByID(t, spans)
	kinds := map[string]int{}
	for _, s := range spans {
		kinds[s.Name]++
		switch s.Name {
		case trace.SpanPoint:
			if parent := byID[s.Parent]; parent.Name != trace.SpanCampaign {
				t.Fatalf("point span %s parents under %q, want the campaign span", s.Key, parent.Name)
			}
			if s.Hash == "" {
				t.Fatalf("point span %s has no content hash", s.Key)
			}
		case trace.SpanChunkRun, trace.SpanDecode, trace.SpanStoreCommit:
			if parent := byID[s.Parent]; parent.Name != trace.SpanPoint {
				t.Fatalf("%s span parents under %q, want a point span", s.Name, parent.Name)
			}
		}
		if s.Node != "local" {
			t.Fatalf("single-node span records node %q, want local", s.Node)
		}
	}
	for _, kind := range []string{trace.SpanCampaign, trace.SpanPoint, trace.SpanChunkRun, trace.SpanDecode, trace.SpanStoreCommit} {
		if kinds[kind] == 0 {
			t.Fatalf("trace has no %s spans (kinds: %v)", kind, kinds)
		}
	}
	if kinds[trace.SpanPoint] != 15 {
		t.Fatalf("trace has %d point spans, want 15", kinds[trace.SpanPoint])
	}

	// The same trace resolves by trace id.
	byTrace, body := doRaw(t, ts, http.MethodGet, "/v1/traces/"+traceID, "", nil)
	if byTrace.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/traces/%s: status %d", traceID, byTrace.StatusCode)
	}
	if n := bytes.Count(body, []byte("\n")); n != len(spans) {
		t.Fatalf("GET /v1/traces/%s returned %d spans, campaign endpoint %d", traceID, n, len(spans))
	}

	// Chrome trace-event rendering parses and carries events.
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + itoa(id) + "/trace?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("chrome format content type = %q", ct)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) < len(spans) {
		t.Fatalf("chrome trace has %d events for %d spans", len(doc.TraceEvents), len(spans))
	}
}

func itoa(id int64) string { return strconv.FormatInt(id, 10) }

// TestTraceEndpointValidation: unsampled campaigns 404, malformed ids
// and formats 400, and a bad trace_sample value is rejected before any
// work starts.
func TestTraceEndpointValidation(t *testing.T) {
	_, ts, _ := newTestServer(t)

	// Unsampled campaign: known to telemetry, absent from the trace
	// registry.
	stream := startCampaign(t, ts, CampaignRequest{Experiment: "threshold", Shots: 64, Seed: seed(3)}, true)
	drainStream(t, stream)
	if stream.TraceID != "" {
		t.Fatalf("unsampled campaign advertised trace id %q", stream.TraceID)
	}
	for path, want := range map[string]int{
		"/v1/campaigns/" + itoa(stream.ID) + "/trace": http.StatusNotFound,
		"/v1/campaigns/nope/trace":                    http.StatusBadRequest,
		"/v1/traces/zz":                               http.StatusBadRequest,
		"/v1/traces/" + strings.Repeat("z", 32):       http.StatusBadRequest,
		"/v1/traces/" + strings.Repeat("a", 32):       http.StatusNotFound,
		"/v1/traces/" + strings.Repeat("a", 31):       http.StatusBadRequest,
		"/v1/traces/" + strings.Repeat("a", 33):       http.StatusBadRequest,
		"/v1/traces/" + strings.Repeat("AB", 16):      http.StatusNotFound,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}

	// A sampled campaign with a bad format query.
	id, _ := submitTraced(t, ts, CampaignRequest{Experiment: "threshold", Shots: 64, Seed: seed(3)})
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + itoa(id) + "/trace?format=svg")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad format status = %d, want 400", resp.StatusCode)
	}

	// trace_sample validation mirrors -engine: parsed fine, rejected
	// by constraint.
	resp, err = http.Post(ts.URL+"/v1/campaigns", "application/json",
		strings.NewReader(`{"experiment":"threshold","trace_sample":"always"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad trace_sample status = %d, want 400", resp.StatusCode)
	}
}

// TestTraceparentHeaderDoesNotSample: the request's trace_sample is the
// only sampling input. A submission carrying a sampled W3C traceparent
// header and no trace_sample is not traced: no X-Radqec-Trace-Id, and
// its trace endpoint answers 404.
func TestTraceparentHeaderDoesNotSample(t *testing.T) {
	_, ts, _ := newTestServer(t)
	resp, _ := doRaw(t, ts, http.MethodPost, "/v1/campaigns",
		`{"experiment":"threshold","shots":64,"seed":5}`,
		map[string]string{"traceparent": "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submission: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Radqec-Trace-Id"); got != "" {
		t.Fatalf("a traceparent header sampled the campaign under trace id %s", got)
	}
	tr, _ := doRaw(t, ts, http.MethodGet, "/v1/campaigns/"+resp.Header.Get("X-Radqec-Campaign-Id")+"/trace", "", nil)
	if tr.StatusCode != http.StatusNotFound {
		t.Fatalf("GET trace of an unsampled campaign: status %d, want 404", tr.StatusCode)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for capturing slog
// output from handler goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestWorkerPanicLogsStructuredRecord: the worker-panic report is a
// structured slog record carrying the campaign id, point key, content
// hash and captured stack — greppable fields, not a formatted string.
func TestWorkerPanicLogsStructuredRecord(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	var logBuf syncBuffer
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Store: st, Workers: 4, Logger: slog.New(slog.NewJSONHandler(&logBuf, nil))})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		st.Close()
	})
	if err := faultinject.Enable(faultinject.WorkerPanic, "panic*1"); err != nil {
		t.Fatal(err)
	}
	stream := startCampaign(t, ts, CampaignRequest{Experiment: "threshold", Shots: 192, Seed: seed(31)}, true)
	recs := drainStream(t, stream)
	if len(recs) == 0 || recs[len(recs)-1].Err == nil {
		t.Fatal("panicked campaign did not end in an error record")
	}

	var found bool
	for _, line := range strings.Split(logBuf.String(), "\n") {
		if !strings.Contains(line, "panic") {
			continue
		}
		var rec struct {
			Level    string `json:"level"`
			Campaign int64  `json:"campaign"`
			Point    string `json:"point"`
			Hash     string `json:"hash"`
			Stack    string `json:"stack"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("panic log line not JSON: %q", line)
		}
		if rec.Level != "ERROR" {
			continue
		}
		found = true
		if rec.Campaign != stream.ID {
			t.Errorf("panic record campaign = %d, want %d", rec.Campaign, stream.ID)
		}
		if rec.Point == "" {
			t.Error("panic record has no point key")
		}
		if rec.Hash == "" {
			t.Error("panic record has no content hash")
		}
		if !strings.Contains(rec.Stack, "goroutine") {
			t.Errorf("panic record stack does not look like a stack trace: %.80q", rec.Stack)
		}
	}
	if !found {
		t.Fatalf("no structured panic record in the log:\n%s", logBuf.String())
	}
}

// TestSignalsStreamMidCancel: a follow-mode signals stream open while
// its campaign is cancelled terminates cleanly with the final stats
// record instead of hanging or erroring.
func TestSignalsStreamMidCancel(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	_, ts, _ := newTestServer(t)
	if err := faultinject.Enable(faultinject.StoreWriteSlow, "sleep(15ms)"); err != nil {
		t.Fatal(err)
	}
	cl := client.New(ts.URL, ts.Client())
	stream := startCampaign(t, ts, CampaignRequest{Experiment: "threshold", Shots: 384, Seed: seed(31)}, true)
	sig, err := cl.Signals(context.Background(), stream.ID, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	defer sig.Close()
	if err := cl.Cancel(context.Background(), stream.ID); err != nil {
		t.Fatal(err)
	}
	drainStream(t, stream)

	// The follow stream must observe the campaign's finish and close
	// with the stats record; bound the wait so a regression hangs the
	// test visibly, not forever.
	done := make(chan error, 1)
	var sawStats bool
	go func() {
		for {
			rec, err := sig.Next()
			if errors.Is(err, io.EOF) {
				done <- nil
				return
			}
			if err != nil {
				done <- err
				return
			}
			if rec.Stats != nil {
				sawStats = true
				if !rec.Stats.Done {
					done <- errors.New("stats record before the campaign finished")
					return
				}
			}
		}
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("signals stream did not terminate after campaign cancellation")
	}
	if !sawStats {
		t.Fatal("signals stream closed without the final stats record")
	}
}

// TestPprofEndpointGated: /debug/pprof/ serves only when Config.Pprof
// opts in; the default surface keeps it unrouted.
func TestPprofEndpointGated(t *testing.T) {
	srvOn := New(Config{Workers: 1, Pprof: true})
	defer srvOn.Close()
	tsOn := httptest.NewServer(srvOn.Handler())
	defer tsOn.Close()
	resp, err := http.Get(tsOn.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof-on status = %d, want 200", resp.StatusCode)
	}

	_, tsOff, _ := newTestServer(t)
	resp, err = http.Get(tsOff.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof-off status = %d, want 404", resp.StatusCode)
	}
}

// TestMetricsOpenMetricsExemplars: the latency histograms render under
// both negotiated formats — exemplar annotations only when the scrape
// Accepts OpenMetrics, since the classic 0.0.4 parser cannot represent
// them — and a sampled campaign populates the decode and store-commit
// paths.
func TestMetricsOpenMetricsExemplars(t *testing.T) {
	_, ts, _ := newTestServer(t)
	submitTraced(t, ts, CampaignRequest{Experiment: "threshold", Shots: 128, Seed: seed(11)})

	get := func(accept string) (string, string) {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body bytes.Buffer
		if _, err := body.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return body.String(), resp.Header.Get("Content-Type")
	}

	classic, ct := get("")
	if !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("classic content type = %q", ct)
	}
	for _, name := range []string{"decode", "store_commit"} {
		if !strings.Contains(classic, "# TYPE radqecd_"+name+"_seconds histogram") {
			t.Errorf("classic exposition missing the %s histogram", name)
		}
	}
	if strings.Contains(classic, "radqecd_fabric_") || strings.Contains(classic, "radqecd_remote_fetch_") ||
		strings.Contains(classic, "radqecd_lease_wait_") {
		t.Error("classic exposition still carries a series of the removed fabric")
	}
	if strings.Contains(classic, "# {trace_id=") {
		t.Error("classic 0.0.4 exposition carries exemplars")
	}
	if strings.Contains(classic, "# EOF") {
		t.Error("classic exposition carries the OpenMetrics EOF marker")
	}

	om, ct := get("application/openmetrics-text")
	if !strings.Contains(ct, "openmetrics-text") {
		t.Fatalf("openmetrics content type = %q", ct)
	}
	if !strings.Contains(om, "# {trace_id=") {
		t.Error("openmetrics exposition has no exemplars despite a sampled campaign")
	}
	if !strings.HasSuffix(strings.TrimSpace(om), "# EOF") {
		t.Error("openmetrics exposition does not end with # EOF")
	}

	// The sampled campaign observed real latencies on the decode and
	// commit paths.
	if !strings.Contains(om, "radqecd_decode_seconds_count") {
		t.Error("decode histogram has no count series")
	}
}
