package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
)

// submitForID posts a campaign, drains its stream, and returns the
// campaign id the daemon assigned via the response header.
func submitForID(t *testing.T, ts *httptest.Server, req CampaignRequest) string {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	id := resp.Header.Get("X-Radqec-Campaign-Id")
	if id == "" {
		t.Fatal("campaign response carries no X-Radqec-Campaign-Id header")
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return id
}

// TestSignalsStreamEndpoint: a completed campaign's signals replay over
// GET /v1/campaigns/{id}/signals as NDJSON — per-turn signal records
// (each with the decoder's share of its wall time, sampled or not)
// closed by one aggregate stats record carrying the resolved engine.
func TestSignalsStreamEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t)
	id := submitForID(t, ts, CampaignRequest{Experiment: "threshold", Shots: 128, Seed: seed(9)})

	for _, follow := range []string{"?follow=0", ""} {
		resp, err := http.Get(ts.URL + "/v1/campaigns/" + id + "/signals" + follow)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("signals status = %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("signals content type = %q", ct)
		}
		var signals int
		var shots int
		var decodeNS int64
		var last statsRecord
		sawStats := false
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			var kind struct {
				Type string `json:"type"`
			}
			if err := json.Unmarshal(sc.Bytes(), &kind); err != nil {
				t.Fatalf("stream line not JSON: %q", sc.Bytes())
			}
			switch kind.Type {
			case "signal":
				if sawStats {
					t.Fatal("signal record after the stats record")
				}
				var rec signalRecord
				if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
					t.Fatal(err)
				}
				signals++
				shots += rec.Shots
				decodeNS += rec.DecodeNS
			case "stats":
				if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
					t.Fatal(err)
				}
				sawStats = true
			default:
				t.Fatalf("unexpected record type %q", kind.Type)
			}
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if signals == 0 {
			t.Fatal("no signal records streamed")
		}
		if !sawStats {
			t.Fatal("stream ended without a stats record")
		}
		if !last.Done || last.Shots == 0 || int(last.Shots) != shots {
			t.Fatalf("stats record inconsistent with signals: %+v (signal shots %d)", last.Stats, shots)
		}
		// The campaign is unsampled: decode time needs no tracing.
		if decodeNS == 0 || last.DecodeNS != decodeNS {
			t.Fatalf("stats decode_ns %d, chunks carry %d (want equal and non-zero)", last.DecodeNS, decodeNS)
		}
		if last.Engine != "batch" {
			t.Fatalf("stats record missing the resolved engine: %+v", last.Stats)
		}
	}

	// Bad and unknown ids fail cleanly.
	if resp, err := http.Get(ts.URL + "/v1/campaigns/nope/signals"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad id status = %d, want 400", resp.StatusCode)
	}
	if resp, err := http.Get(ts.URL + "/v1/campaigns/99999/signals"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id status = %d, want 404", resp.StatusCode)
	}
}

// TestMetricsPrometheusExposition: every radqecd_* series carries
// # HELP and # TYPE lines in exposition format 0.0.4.
func TestMetricsPrometheusExposition(t *testing.T) {
	_, ts, _ := newTestServer(t)
	submitForID(t, ts, CampaignRequest{Experiment: "threshold", Shots: 64, Seed: seed(2)})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := body.String()
	for name, kind := range map[string]string{
		"uptime_seconds":        "gauge",
		"workers":               "gauge",
		"campaigns_total":       "counter",
		"campaigns_active":      "gauge",
		"campaign_errors_total": "counter",
		"points_computed_total": "counter",
		"points_cached_total":   "counter",
		"shots_computed_total":  "counter",
		"store_commits":         "gauge",
		"store_hits_total":      "counter",
		"store_misses_total":    "counter",

		"decoder_triggered_lanes_total": "counter",
		"decoder_matcher_calls_total":   "counter",
		"decoder_exact_parity_total":    "counter",
		"decoder_matched_defects_total": "counter",
		"decoder_memo_entries":          "gauge",
		"prepared_hits_total":           "counter",
		"prepared_misses_total":         "counter",
		"prepared_evictions_total":      "counter",
	} {
		if !strings.Contains(text, "# HELP radqecd_"+name+" ") {
			t.Errorf("series %s has no HELP line", name)
		}
		if !strings.Contains(text, "# TYPE radqecd_"+name+" "+kind+"\n") {
			t.Errorf("series %s has no TYPE %s line", name, kind)
		}
		if !strings.Contains(text, "\nradqecd_"+name+" ") && !strings.HasPrefix(text, "radqecd_"+name+" ") {
			t.Errorf("series %s has no sample line", name)
		}
	}
	// Sanity: the legacy scrape helper still parses values past the new
	// comment lines.
	if metricValue(t, ts, "campaigns_total") < 1 {
		t.Error("campaigns_total did not count the submitted campaign")
	}
	// The campaign decoded on the process's registry codes, so the
	// registry's ledger is the daemon's.
	if metricValue(t, ts, "decoder_triggered_lanes_total") < 1 || metricValue(t, ts, "prepared_misses_total") < 1 {
		t.Error("the code registry's counters did not see the submitted campaign")
	}
}

// TestCampaignGaugesLabelActiveCampaigns: the per-campaign gauges
// appear in /metrics while a campaign is registered as active, and the
// removed controller's two are gone.
func TestCampaignGaugesLabelActiveCampaigns(t *testing.T) {
	srv, ts, _ := newTestServer(t)
	c := srv.tele.New("fig5", nil)
	defer srv.tele.Finish(c)
	c.SetQueueDepth(7)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := body.String()
	for _, want := range []string{
		`# TYPE radqecd_campaign_shots_per_sec gauge`,
		`radqecd_campaign_queue_depth{campaign="1",experiment="fig5"} 7`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	for _, gone := range []string{"radqecd_campaign_batch_size", "radqecd_campaign_dwell_left"} {
		if strings.Contains(text, gone) {
			t.Errorf("metrics still export %s", gone)
		}
	}
}

// TestControllerRequestValidation: the removed controller's request
// fields are unknown fields now — each answers 400 in the structured
// envelope, naming the field.
func TestControllerRequestValidation(t *testing.T) {
	_, ts, _ := newTestServer(t)
	for field, body := range map[string]string{
		"controller": `{"experiment":"fig5","controller":false}`,
		"dwell":      `{"experiment":"fig5","dwell":4}`,
		"hysteresis": `{"experiment":"fig5","hysteresis":0.15}`,
	} {
		resp, msg := doRaw(t, ts, http.MethodPost, "/v1/campaigns", body, nil)
		var env envelope
		if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(msg, &env) != nil || env.Error.Code != "bad_request" {
			t.Errorf("%s: status=%d body=%q, want 400 bad_request", field, resp.StatusCode, msg)
			continue
		}
		if !strings.Contains(env.Error.Message, `unknown field "`+field+`"`) {
			t.Errorf("%s: message %q does not name the unknown field", field, env.Error.Message)
		}
	}
}

// histogramExemplars scrapes /metrics as OpenMetrics and returns the
// exemplar annotations of one histogram's bucket lines, in order.
func histogramExemplars(t *testing.T, ts *httptest.Server, name string) []string {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if _, ex, ok := strings.Cut(line, " # {trace_id="); ok && strings.HasPrefix(line, "radqecd_"+name+"_bucket") {
			out = append(out, ex)
		}
	}
	return out
}

// TestUnsampledCampaignFeedsHistograms: the decode and store-commit
// histograms are fed from every campaign's turn records, not from a
// sampled campaign's spans — an unsampled cold campaign raises the
// decode count, raises the store-commit count by exactly the points it
// computed, and adds no exemplar; the warm replay moves neither. The
// histograms are process-wide, so everything is a delta.
func TestUnsampledCampaignFeedsHistograms(t *testing.T) {
	_, ts, _ := newTestServer(t)
	req := CampaignRequest{Experiment: "threshold", Shots: 128, Seed: seed(23), TraceSample: "off"}
	read := func() (decode, commit, computed float64) {
		return metricValue(t, ts, "decode_seconds_count"),
			metricValue(t, ts, "store_commit_seconds_count"),
			metricValue(t, ts, "points_computed_total")
	}
	decodeEx := histogramExemplars(t, ts, "decode_seconds")
	commitEx := histogramExemplars(t, ts, "store_commit_seconds")
	decode0, commit0, computed0 := read()
	submitForID(t, ts, req)
	decode1, commit1, computed1 := read()
	if computed1 == computed0 {
		t.Fatal("cold campaign computed no points")
	}
	if decode1 <= decode0 {
		t.Fatalf("decode histogram count %v -> %v on an unsampled campaign, want it raised", decode0, decode1)
	}
	if got, want := commit1-commit0, computed1-computed0; got != want {
		t.Fatalf("store-commit histogram count rose by %v, the campaign computed %v points", got, want)
	}
	if got := histogramExemplars(t, ts, "decode_seconds"); !slices.Equal(got, decodeEx) {
		t.Fatalf("unsampled campaign changed the decode exemplars: %v -> %v", decodeEx, got)
	}
	if got := histogramExemplars(t, ts, "store_commit_seconds"); !slices.Equal(got, commitEx) {
		t.Fatalf("unsampled campaign changed the store-commit exemplars: %v -> %v", commitEx, got)
	}
	submitForID(t, ts, req)
	if decode2, commit2, computed2 := read(); decode2 != decode1 || commit2 != commit1 || computed2 != computed1 {
		t.Fatalf("warm replay moved decode %v -> %v, store-commit %v -> %v, computed %v -> %v",
			decode1, decode2, commit1, commit2, computed1, computed2)
	}
}
