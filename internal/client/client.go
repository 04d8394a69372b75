// Package client is the typed Go client of the radqecd v1 API — the
// one place the calls this tree makes are spelled out. The benchmark
// harness, the server's own tests and the smoke harness's Go helper
// all speak through it instead of hand-rolling http.Get and NDJSON
// parsing, so a surface change breaks one package loudly rather than
// three quietly.
//
// The request and record types here are the protocol: package server
// aliases CampaignRequest as its POST /v1/campaigns body, and the
// stream records reuse exp.PointRecord / exp.TableRecord — the exact
// structs the CLI's -json mode emits.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"radqec/internal/exp"
	"radqec/internal/store"
	"radqec/internal/sweep"
	"radqec/internal/telemetry"
	"radqec/internal/trace"
)

// CampaignRequest is the JSON body of POST /v1/campaigns. Zero fields
// take the CLI defaults, so {"experiment":"fig5"} is a complete
// request. The server decodes it with unknown fields disallowed, so
// this struct is the authoritative field list.
type CampaignRequest struct {
	Experiment string `json:"experiment"`
	Shots      int    `json:"shots,omitempty"`
	// Seed is a pointer so an omitted field takes the CLI's default
	// seed (1) while an explicit {"seed":0} still means seed zero.
	Seed     *uint64 `json:"seed,omitempty"`
	P        float64 `json:"p,omitempty"`
	NS       int     `json:"ns,omitempty"`
	Rounds   int     `json:"rounds,omitempty"`
	Engine   string  `json:"engine,omitempty"`
	CI       float64 `json:"ci,omitempty"`
	MaxShots int     `json:"maxshots,omitempty"`
	// Workers caps this campaign's concurrency inside the shared pool
	// (0 = the whole pool). It never grows the pool.
	Workers int `json:"workers,omitempty"`
	// NoCache bypasses the store for this campaign: nothing is read
	// from or written to it.
	NoCache bool `json:"no_cache,omitempty"`
	// TraceSample is the one switch that traces this campaign: "on"
	// records its spans (at GET /v1/campaigns/{id}/trace), "off" or
	// omitted records none. Any other value is a 400. Tracing is pure
	// mechanism — results and content hashes are unchanged by it.
	TraceSample string `json:"trace_sample,omitempty"`
}

// Error is a failed v1 call: the HTTP status plus the server's stable
// machine-readable code and human message from the error envelope.
type Error struct {
	Status  int    // HTTP status code
	Code    string // stable machine-readable code, e.g. "invalid_argument"
	Message string
}

func (e *Error) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("radqecd: %s (%s, HTTP %d)", e.Message, e.Code, e.Status)
	}
	return fmt.Sprintf("radqecd: %s (HTTP %d)", e.Message, e.Status)
}

// Client calls one radqecd node. The zero value is not usable; build
// with New. Safe for concurrent use.
type Client struct {
	base string
	hc   *http.Client
}

// New builds a client for a daemon at addr — a bare "host:port" or a
// full "http://host:port" base URL. hc nil uses a dedicated client
// with no overall timeout (campaign streams legitimately run for
// minutes; per-call contexts bound everything else).
func New(addr string, hc *http.Client) *Client {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")
	if hc == nil {
		hc = &http.Client{}
	}
	return &Client{base: base, hc: hc}
}

// decodeError turns a non-2xx response into an *Error. It parses the
// v1 envelope {"error":{"code","message"}} and falls back to the raw
// body for anything else.
func decodeError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	e := &Error{Status: resp.StatusCode, Message: strings.TrimSpace(string(body))}
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if json.Unmarshal(body, &env) == nil && env.Error.Message != "" {
		e.Code, e.Message = env.Error.Code, env.Error.Message
		return e
	}
	if e.Message == "" {
		e.Message = resp.Status
	}
	return e
}

func (c *Client) do(req *http.Request) (*http.Response, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		defer resp.Body.Close()
		return nil, decodeError(resp)
	}
	return resp, nil
}

// getJSON GETs path and decodes the response body into v.
func (c *Client) getJSON(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// doJSON issues a bodyless (or JSON-bodied) request and decodes the
// response into v (nil v discards it).
func (c *Client) doJSON(ctx context.Context, method, path string, body, v any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if v == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// ErrorRecord is the terminal stream record of a failed or cancelled
// campaign.
type ErrorRecord struct {
	Error     string `json:"error"`
	Cancelled bool   `json:"cancelled,omitempty"`
}

// Record is one line of a campaign stream: exactly one field is
// non-nil.
type Record struct {
	Point *exp.PointRecord
	Table *exp.TableRecord
	Err   *ErrorRecord
}

// CampaignStream iterates a running campaign's NDJSON stream.
type CampaignStream struct {
	// ID is the campaign's daemon-assigned identifier, from the
	// X-Radqec-Campaign-Id response header — the handle for Cancel and
	// Signals.
	ID int64
	// TraceID is the campaign's trace id from the X-Radqec-Trace-Id
	// response header, empty when the campaign is unsampled — the
	// handle for GET /v1/traces/{trace_id}.
	TraceID string
	body    io.ReadCloser
	sc      *bufio.Scanner
}

// SubmitOptions tunes a campaign submission.
type SubmitOptions struct {
	// Detach, when non-nil false, couples the campaign to this
	// client's connection (?detach=0): closing the stream cancels the
	// campaign at its next batch boundary. nil or true keeps the
	// daemon default — the campaign detaches and survives the client.
	Detach *bool
}

// SubmitCampaign posts a campaign and returns its live stream. The
// caller must drain Next until io.EOF (or Close early). ctx bounds the
// whole stream's lifetime.
func (c *Client) SubmitCampaign(ctx context.Context, creq CampaignRequest, opts SubmitOptions) (*CampaignStream, error) {
	b, err := json.Marshal(creq)
	if err != nil {
		return nil, err
	}
	u := c.base + "/v1/campaigns"
	if opts.Detach != nil && !*opts.Detach {
		u += "?detach=0"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.do(req)
	if err != nil {
		return nil, err
	}
	id, err := strconv.ParseInt(resp.Header.Get("X-Radqec-Campaign-Id"), 10, 64)
	if err != nil {
		resp.Body.Close()
		return nil, fmt.Errorf("radqecd: campaign stream carried no id header")
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	return &CampaignStream{ID: id, TraceID: resp.Header.Get("X-Radqec-Trace-Id"), body: resp.Body, sc: sc}, nil
}

// Next returns the next stream record, or io.EOF after the last one.
// A terminal error record is returned as a Record (Err set), not as an
// iteration error — the stream itself ended cleanly.
func (s *CampaignStream) Next() (Record, error) {
	if !s.sc.Scan() {
		if err := s.sc.Err(); err != nil {
			return Record{}, err
		}
		return Record{}, io.EOF
	}
	line := s.sc.Bytes()
	var kind struct {
		Type string `json:"type"`
	}
	if err := json.Unmarshal(line, &kind); err != nil {
		return Record{}, fmt.Errorf("radqecd: campaign stream line not JSON: %q", line)
	}
	switch kind.Type {
	case "point":
		var p exp.PointRecord
		if err := json.Unmarshal(line, &p); err != nil {
			return Record{}, err
		}
		return Record{Point: &p}, nil
	case "table":
		var t exp.TableRecord
		if err := json.Unmarshal(line, &t); err != nil {
			return Record{}, err
		}
		return Record{Table: &t}, nil
	case "error":
		var e ErrorRecord
		if err := json.Unmarshal(line, &e); err != nil {
			return Record{}, err
		}
		return Record{Err: &e}, nil
	default:
		return Record{}, fmt.Errorf("radqecd: unexpected campaign record type %q", kind.Type)
	}
}

// Close abandons the stream; the campaign keeps running unless it was
// submitted with Detach=false.
func (s *CampaignStream) Close() error { return s.body.Close() }

// Cancel stops a running campaign (DELETE /v1/campaigns/{id}). The
// campaign observes it at its next batch boundary and its stream ends
// with a cancelled error record.
func (c *Client) Cancel(ctx context.Context, id int64) error {
	return c.doJSON(ctx, http.MethodDelete, "/v1/campaigns/"+strconv.FormatInt(id, 10), nil, nil)
}

// SignalRecord is one line of a signals stream: a telemetry signal, or
// the final aggregate stats record that closes a followed stream.
type SignalRecord struct {
	Signal *telemetry.Signal
	Stats  *telemetry.Stats
}

// SignalStream iterates GET /v1/campaigns/{id}/signals.
type SignalStream struct {
	body io.ReadCloser
	sc   *bufio.Scanner
}

// Signals opens a campaign's telemetry stream from sequence from,
// following live signals until the campaign finishes when follow is
// true (a snapshot of the retained ring otherwise).
func (c *Client) Signals(ctx context.Context, id int64, from uint64, follow bool) (*SignalStream, error) {
	u := fmt.Sprintf("%s/v1/campaigns/%d/signals?from=%d", c.base, id, from)
	if !follow {
		u += "&follow=0"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(req)
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	return &SignalStream{body: resp.Body, sc: sc}, nil
}

// Next returns the next signal record, or io.EOF after the final stats
// record.
func (s *SignalStream) Next() (SignalRecord, error) {
	if !s.sc.Scan() {
		if err := s.sc.Err(); err != nil {
			return SignalRecord{}, err
		}
		return SignalRecord{}, io.EOF
	}
	line := s.sc.Bytes()
	var kind struct {
		Type string `json:"type"`
	}
	if err := json.Unmarshal(line, &kind); err != nil {
		return SignalRecord{}, fmt.Errorf("radqecd: signals stream line not JSON: %q", line)
	}
	switch kind.Type {
	case "signal":
		var sig telemetry.Signal
		if err := json.Unmarshal(line, &sig); err != nil {
			return SignalRecord{}, err
		}
		return SignalRecord{Signal: &sig}, nil
	case "stats":
		var st telemetry.Stats
		if err := json.Unmarshal(line, &st); err != nil {
			return SignalRecord{}, err
		}
		return SignalRecord{Stats: &st}, nil
	default:
		return SignalRecord{}, fmt.Errorf("radqecd: unexpected signals record type %q", kind.Type)
	}
}

// Close abandons the signals stream.
func (s *SignalStream) Close() error { return s.body.Close() }

// TraceSpans fetches a sampled campaign's recorded spans
// (GET /v1/campaigns/{id}/trace, NDJSON).
func (c *Client) TraceSpans(ctx context.Context, id int64) ([]trace.Span, error) {
	path := "/v1/campaigns/" + strconv.FormatInt(id, 10) + "/trace"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var spans []trace.Span
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var s trace.Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return nil, fmt.Errorf("radqecd: trace stream line not a span: %q", sc.Bytes())
		}
		spans = append(spans, s)
	}
	return spans, sc.Err()
}

// CacheStats returns the daemon's result-store statistics.
func (c *Client) CacheStats(ctx context.Context) (store.Stats, error) {
	var out store.Stats
	return out, c.getJSON(ctx, "/v1/cache", &out)
}

// CacheEntries lists the store's committed points.
func (c *Client) CacheEntries(ctx context.Context) ([]store.Entry, error) {
	var out []store.Entry
	return out, c.getJSON(ctx, "/v1/cache/entries", &out)
}

// PointResponse is the body of GET /v1/points/{hash} and
// GET /v1/cache/entries/{hash}: one committed point under its content
// address.
type PointResponse struct {
	Hash  string            `json:"hash"`
	Point sweep.CachedPoint `json:"point"`
}

// CodeNotCommitted is the API code of a point lookup that found no
// committed result.
const CodeNotCommitted = "point_not_committed"

// LookupPoint fetches the committed result for a content hash from the
// daemon's store (GET /v1/points/{hash}). wait > 0 asks the daemon to
// hold the request until the point commits or the window expires.
// Returns ok=false (and no error) when the point is not committed.
func (c *Client) LookupPoint(ctx context.Context, hash string, wait time.Duration) (sweep.CachedPoint, bool, error) {
	path := "/v1/points/" + url.PathEscape(hash)
	if wait > 0 {
		path += "?wait=" + wait.String()
	}
	var out PointResponse
	err := c.getJSON(ctx, path, &out)
	if err != nil {
		var ae *Error
		if errors.As(err, &ae) && ae.Code == CodeNotCommitted {
			return sweep.CachedPoint{}, false, nil
		}
		return sweep.CachedPoint{}, false, err
	}
	return out.Point, true, nil
}

// Claim lease statuses of POST /v1/points/{hash}/claim.
const (
	ClaimGranted   = "granted"
	ClaimHeld      = "held"
	ClaimCommitted = "committed"
)

// Claim is the outcome of a point-lease claim.
type Claim struct {
	Status string `json:"status"`
	// Holder and RemainingMS describe the conflicting lease when
	// Status is "held".
	Holder      string `json:"holder,omitempty"`
	RemainingMS int64  `json:"remaining_ms,omitempty"`
	// TTLMS echoes the granted lease's TTL when Status is "granted".
	TTLMS int64 `json:"ttl_ms,omitempty"`
}

// claimRequest is the body of POST /v1/points/{hash}/claim.
type claimRequest struct {
	Owner string `json:"owner"`
	TTLMS int64  `json:"ttl_ms,omitempty"`
}

// ClaimPoint asks the daemon for the compute lease on a content hash.
// Every outcome is a 200 with a status: "granted" means the caller may
// compute the point until the TTL lapses (the daemon caps the TTL and
// echoes the one it granted), "held" names the owner already computing
// it, and "committed" means the result already exists (fetch it with
// LookupPoint instead).
func (c *Client) ClaimPoint(ctx context.Context, hash, owner string, ttl time.Duration) (Claim, error) {
	var out Claim
	err := c.doJSON(ctx, http.MethodPost, "/v1/points/"+url.PathEscape(hash)+"/claim",
		claimRequest{Owner: owner, TTLMS: ttl.Milliseconds()}, &out)
	return out, err
}
