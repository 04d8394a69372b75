package server

// v1 surface tests: the uniform error envelope and its stable codes,
// the request body bound, and the consolidated cache endpoints.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"radqec/internal/client"
)

// doRaw issues a bare HTTP request against the test server.
func doRaw(t *testing.T, ts *httptest.Server, method, path, body string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// envelope decodes the v1 error envelope.
type envelope struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// TestErrorEnvelopeUniform: every /v1 endpoint's failure is the same
// {"error":{"code","message"}} envelope with a stable code.
func TestErrorEnvelopeUniform(t *testing.T) {
	_, ts, _ := newTestServer(t)
	for _, tc := range []struct {
		method, path, body string
		status             int
		code               string
	}{
		{http.MethodPost, "/v1/campaigns", `{"experiment":`, 400, "bad_request"},
		{http.MethodPost, "/v1/campaigns", `{"experiment":"nope"}`, 400, "invalid_argument"},
		{http.MethodDelete, "/v1/campaigns/abc", "", 400, "bad_request"},
		{http.MethodDelete, "/v1/campaigns/999", "", 404, "not_found"},
		{http.MethodGet, "/v1/campaigns/999/signals", "", 404, "not_found"},
		{http.MethodGet, "/v1/points/unknown-hash", "", 404, "point_not_committed"},
		{http.MethodPost, "/v1/points/h/claim", `{}`, 400, "invalid_argument"},
		{http.MethodGet, "/v1/cache/entries/unknown-hash", "", 404, "not_found"},
		{http.MethodDelete, "/v1/cache/entries/unknown-hash", "", 404, "not_found"},
	} {
		resp, body := doRaw(t, ts, tc.method, tc.path, tc.body, nil)
		if resp.StatusCode != tc.status {
			t.Errorf("%s %s: status = %d, want %d", tc.method, tc.path, resp.StatusCode, tc.status)
			continue
		}
		var env envelope
		if err := json.Unmarshal(body, &env); err != nil || env.Error.Code == "" || env.Error.Message == "" {
			t.Errorf("%s %s: body %q is not a v1 error envelope (%v)", tc.method, tc.path, body, err)
			continue
		}
		if env.Error.Code != tc.code {
			t.Errorf("%s %s: code = %q, want %q", tc.method, tc.path, env.Error.Code, tc.code)
		}
	}
}

// TestErrorEnvelopeStorelessDaemon: the cache and point APIs on a
// daemon without a store answer with the no_store code.
func TestErrorEnvelopeStorelessDaemon(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, path := range []string{"/v1/cache", "/v1/cache/entries", "/v1/points/h"} {
		resp, body := doRaw(t, ts, http.MethodGet, path, "", nil)
		var env envelope
		if resp.StatusCode != 404 || json.Unmarshal(body, &env) != nil || env.Error.Code != "no_store" {
			t.Errorf("GET %s on storeless daemon: status=%d body=%q, want 404 no_store", path, resp.StatusCode, body)
		}
	}
}

// assertBodyTooLarge posts a 2 MiB body — valid JSON throughout, so
// only its size can be at fault — and expects the bad_request envelope
// saying so: the handler neither buffers nor drains past maxRequestBody.
func assertBodyTooLarge(t *testing.T, ts *httptest.Server, path, prefix string) {
	t.Helper()
	body := prefix + strings.Repeat(" ", 2<<20) + `}`
	resp, msg := doRaw(t, ts, http.MethodPost, path, body, nil)
	var env envelope
	if resp.StatusCode != 400 || json.Unmarshal(msg, &env) != nil || env.Error.Code != "bad_request" {
		t.Fatalf("2 MiB body to %s: status=%d body=%q, want 400 bad_request", path, resp.StatusCode, msg)
	}
	if !strings.Contains(env.Error.Message, "too large") {
		t.Fatalf("%s: message %q does not say the body was too large", path, env.Error.Message)
	}
}

// TestCampaignBodyBounded: a campaign body past maxRequestBody is
// refused with the bad_request envelope once the bound is crossed.
func TestCampaignBodyBounded(t *testing.T) {
	_, ts, _ := newTestServer(t)
	assertBodyTooLarge(t, ts, "/v1/campaigns", `{"experiment":"threshold"`)
}

// TestClaimBodyBounded: the claim endpoint bounds its body the same way,
// and a normal claim is still granted.
func TestClaimBodyBounded(t *testing.T) {
	_, ts, _ := newTestServer(t)
	assertBodyTooLarge(t, ts, "/v1/points/h/claim", `{"owner":"node-a"`)
	claim, err := client.New(ts.URL, ts.Client()).ClaimPoint(context.Background(), "h", "node-a", time.Second)
	if err != nil || claim.Status != client.ClaimGranted {
		t.Fatalf("claim after a refused body = %+v, %v; want granted", claim, err)
	}
}

// TestAPIDocRequestBodyDecodes: the request body docs/api.md shows under
// POST /v1/campaigns is one the daemon accepts, so the wire doc cannot
// drift from the validator.
func TestAPIDocRequestBodyDecodes(t *testing.T) {
	doc, err := os.ReadFile("../../docs/api.md")
	if err != nil {
		t.Fatal(err)
	}
	_, after, ok := strings.Cut(string(doc), "Request body")
	if !ok {
		t.Fatal(`docs/api.md has no "Request body" section`)
	}
	_, after, ok = strings.Cut(after, "```json\n")
	body, _, closed := strings.Cut(after, "```")
	if !ok || !closed {
		t.Fatal(`docs/api.md has no fenced json block after "Request body"`)
	}
	req, code, err := decodeCampaignRequest(strings.NewReader(body))
	if err != nil {
		t.Fatalf("documented request body rejected (%s): %v\n%s", code, err, body)
	}
	if req.Experiment == "" || req.Engine == "" {
		t.Fatalf("documented request decoded to %+v; want the example's experiment and engine", req)
	}
}

// FuzzCampaignRequestDecode: arbitrary bytes never panic the daemon's
// request decoder, and yield either a request that passes validation
// and lowers onto a campaign config, or a 400 in the v1 envelope.
func FuzzCampaignRequestDecode(f *testing.F) {
	for _, seed := range []string{
		`{"experiment":"fig5"}`,
		`{"experiment":"fig6","shots":512,"seed":0,"ci":0.01,"workers":2,"trace_sample":"on"}`,
		`{"experiment":"fig5","controller":false}`,
		`{"experiment":"fig5","dwell":4}`,
		`{"experiment":"fig5","hysteresis":0.15}`,
		`{"experiment":"fig5","engine_width":64}`,
		`{"experiment":"fig5","engine":"frame"}`,
		`{"experiment":"fig5","engine":"auto"}`,
		`{"experiment":"fig5","p":1e999}`,
		`{"experiment":"nope"}`,
		`{"experiment":`,
		`null`,
		``,
	} {
		f.Add([]byte(seed))
	}
	srv := New(Config{Workers: 1})
	f.Cleanup(srv.Close)
	f.Fuzz(func(t *testing.T, body []byte) {
		req, code, err := decodeCampaignRequest(bytes.NewReader(body))
		if err == nil {
			if verr := validateRequest(req); verr != nil {
				t.Fatalf("accepted request %+v fails validation: %v", req, verr)
			}
			srv.campaignConfig(req)
			return
		}
		rec := httptest.NewRecorder()
		apiError(rec, http.StatusBadRequest, code, err.Error())
		var env envelope
		if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &env) != nil ||
			(env.Error.Code != "bad_request" && env.Error.Code != "invalid_argument") || env.Error.Message == "" {
			t.Fatalf("body %q: answer %d %q is not a 400 v1 envelope", body, rec.Code, rec.Body.Bytes())
		}
	})
}

// TestCacheEndpointConsolidation: the entry-scoped cache routes and
// the compact action work, and the pre-v1 aliases are gone.
func TestCacheEndpointConsolidation(t *testing.T) {
	_, ts, st := newTestServer(t)
	submit(t, ts, CampaignRequest{Experiment: "threshold", Shots: 64, Seed: seed(5)})
	entries := st.Entries()
	if len(entries) == 0 {
		t.Fatal("no entries committed")
	}
	hash := entries[0].Hash

	// GET one committed entry by hash.
	resp, body := doRaw(t, ts, http.MethodGet, "/v1/cache/entries/"+hash, "", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("GET entry: status = %d (%s)", resp.StatusCode, body)
	}
	var pr struct {
		Hash  string `json:"hash"`
		Point struct {
			Key   string `json:"key"`
			Shots int    `json:"shots"`
		} `json:"point"`
	}
	if err := json.Unmarshal(body, &pr); err != nil || pr.Hash != hash || pr.Point.Shots == 0 {
		t.Fatalf("GET entry body = %q (%v)", body, err)
	}

	// Invalidate one entry, compact the segment.
	resp, _ = doRaw(t, ts, http.MethodDelete, "/v1/cache/entries/"+hash, "", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("DELETE entry: status = %d", resp.StatusCode)
	}
	resp, _ = doRaw(t, ts, http.MethodPost, "/v1/cache:compact", "", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("POST /v1/cache:compact: status = %d", resp.StatusCode)
	}

	// The old aliases route nowhere, and the entry they named survives.
	left := len(st.Entries())
	hash2 := st.Entries()[0].Hash
	resp, _ = doRaw(t, ts, http.MethodDelete, "/v1/cache/"+hash2, "", nil)
	if resp.StatusCode != 404 && resp.StatusCode != 405 {
		t.Fatalf("removed DELETE /v1/cache/{hash}: status = %d, want 404 or 405", resp.StatusCode)
	}
	resp, _ = doRaw(t, ts, http.MethodPost, "/v1/cache/compact", "", nil)
	if resp.StatusCode != 404 && resp.StatusCode != 405 {
		t.Fatalf("removed POST /v1/cache/compact: status = %d, want 404 or 405", resp.StatusCode)
	}
	if got := len(st.Entries()); got != left {
		t.Fatalf("a removed alias changed the store: %d entries, had %d", got, left)
	}
}
