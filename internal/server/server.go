// Package server exposes the radqec campaign engine over HTTP: clients
// submit any experiment of the registry as JSON and stream its sweep
// points back as NDJSON while the workers produce them, with the final
// table as the last record — the exact records the CLI's -json mode
// emits, so a daemon stream and a local run are interchangeable.
//
// All campaigns, however many clients are connected, run on one shared
// sweep.Scheduler: the worker pool is sized once at startup and points
// are handed out round-robin across active campaigns, so concurrent
// clients share the CPU fairly instead of oversubscribing it. When a
// store is attached, every point is content-addressed into it and
// re-submissions replay from disk without touching the engines.
//
// Endpoints (the full surface, with request/response shapes, is
// documented in docs/api.md):
//
//	POST   /v1/campaigns                submit a campaign, stream NDJSON points + table
//	DELETE /v1/campaigns/{id}           cancel a running campaign at its next batch boundary
//	GET    /v1/campaigns/{id}/signals   stream a campaign's telemetry signals (NDJSON)
//	GET    /v1/experiments              list runnable experiments
//	GET    /v1/points/{hash}            committed result by content hash (?wait= long-polls)
//	POST   /v1/points/{hash}/claim      claim the compute lease on a content hash
//	GET    /v1/cache                    store statistics
//	GET    /v1/cache/entries            list committed points (hash, key, shots)
//	GET    /v1/cache/entries/{hash}     one committed point
//	DELETE /v1/cache                    clear the store
//	DELETE /v1/cache/entries/{hash}     invalidate one point
//	POST   /v1/cache:compact            rewrite the segment to live records
//	GET    /healthz                     liveness + basic shape
//	GET    /metrics                     Prometheus text exposition
//
// Errors are a uniform JSON envelope {"error":{"code","message"}} with
// stable machine-readable codes.
package server

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"radqec/internal/client"
	"radqec/internal/exp"
	"radqec/internal/fabric"
	"radqec/internal/faultinject"
	"radqec/internal/store"
	"radqec/internal/sweep"
	"radqec/internal/telemetry"
	"radqec/internal/trace"
)

// Config assembles a Server.
type Config struct {
	// Store is the content-addressed result store; nil runs without
	// persistence (every campaign recomputes).
	Store *store.Store
	// Workers sizes the shared sweep worker pool (0 = GOMAXPROCS).
	Workers int
	// Logger receives the daemon's structured diagnostics; nil uses
	// slog.Default().
	Logger *slog.Logger
	// Pprof mounts net/http/pprof under /debug/pprof/ when true. Off by
	// default: profiling endpoints expose heap contents and must be
	// opted into.
	Pprof bool
}

// Server is the campaign service. Create with New, mount Handler, and
// Close on shutdown (after the HTTP server has drained).
type Server struct {
	st      *store.Store
	sched   *sweep.Scheduler
	workers int
	// leases arbitrates POST /v1/points/{hash}/claim.
	leases *fabric.LeaseTable
	// tele is the one campaign table: each entry holds the campaign's
	// telemetry and, when it is sampled, its trace recorder. Its Counts
	// are the daemon's campaign, point and shot counters.
	tele  *telemetry.Registry
	log   *slog.Logger
	mux   *http.ServeMux
	start time.Time

	// cancels maps an active campaign's telemetry ID to its context
	// cancel, so DELETE /v1/campaigns/{id} can stop it mid-stream.
	cancelMu sync.Mutex
	cancels  map[int64]context.CancelCauseFunc

	campaignErrors     atomic.Int64
	campaignsCancelled atomic.Int64
	workerPanics       atomic.Int64
}

// New builds the server and starts its shared worker pool.
func New(cfg Config) *Server {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &Server{
		st:      cfg.Store,
		sched:   sweep.NewScheduler(workers),
		workers: workers,
		leases:  fabric.NewLeaseTable(),
		tele:    telemetry.NewRegistry(),
		log:     cfg.Logger,
		mux:     http.NewServeMux(),
		start:   time.Now(),
		cancels: make(map[int64]context.CancelCauseFunc),
	}
	if s.log == nil {
		s.log = slog.Default()
	}
	s.mux.HandleFunc("POST /v1/campaigns", s.handleCampaign)
	s.mux.HandleFunc("DELETE /v1/campaigns/{id}", s.handleCampaignCancel)
	s.mux.HandleFunc("GET /v1/campaigns/{id}/signals", s.handleSignals)
	s.mux.HandleFunc("GET /v1/campaigns/{id}/trace", s.handleCampaignTrace)
	s.mux.HandleFunc("GET /v1/traces/{trace_id}", s.handleTraceByID)
	s.mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("GET /v1/points/{hash}", s.handlePointLookup)
	s.mux.HandleFunc("POST /v1/points/{hash}/claim", s.handlePointClaim)
	s.mux.HandleFunc("GET /v1/cache", s.handleCacheStats)
	s.mux.HandleFunc("GET /v1/cache/entries", s.handleCacheEntries)
	s.mux.HandleFunc("GET /v1/cache/entries/{hash}", s.handleCacheEntry)
	s.mux.HandleFunc("DELETE /v1/cache", s.handleCacheClear)
	s.mux.HandleFunc("DELETE /v1/cache/entries/{hash}", s.handleCacheInvalidate)
	s.mux.HandleFunc("POST /v1/cache:compact", s.handleCacheCompact)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if cfg.Pprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops the shared worker pool after in-flight campaigns drain.
func (s *Server) Close() { s.sched.Close() }

// CampaignRequest is the JSON body of POST /v1/campaigns — the wire
// type lives in package client so the daemon and Go callers share one
// definition. Zero fields take the CLI
// defaults, so {"experiment":"fig5"} is a complete request.
type CampaignRequest = client.CampaignRequest

// validateRequest checks a request before anything runs, so a bad one
// is a 400 naming the field, never a panic in a sweep worker: the
// experiment and trace_sample here, and every campaign field through
// the one domain check, exp.Config.Validate, on the config
// requestConfig lowers it to.
func validateRequest(r CampaignRequest) error {
	if _, ok := exp.Find(r.Experiment); !ok {
		return fmt.Errorf("unknown experiment %q", r.Experiment)
	}
	if r.TraceSample != "" && r.TraceSample != "on" && r.TraceSample != "off" {
		return fmt.Errorf("bad trace_sample %q (want on or off; empty = off)", r.TraceSample)
	}
	return requestConfig(r).Validate()
}

// requestConfig lowers a request's campaign fields onto the experiment
// config they name; zero fields take exp.Config.Defaults, and an
// omitted seed the CLI's -seed default.
func requestConfig(r CampaignRequest) exp.Config {
	seed := exp.DefaultSeed
	if r.Seed != nil {
		seed = *r.Seed
	}
	return exp.Config{
		Shots:    r.Shots,
		Seed:     seed,
		Workers:  r.Workers,
		P:        r.P,
		NS:       r.NS,
		Rounds:   r.Rounds,
		CI:       r.CI,
		MaxShots: r.MaxShots,
		Engine:   r.Engine,
	}.Defaults()
}

// campaignConfig binds a validated request's config to the server's
// shared scheduler and store. A request's workers caps its campaign
// inside the pool and never grows it; 0 means the whole pool.
func (s *Server) campaignConfig(r CampaignRequest) exp.Config {
	cfg := requestConfig(r)
	if cfg.Workers == 0 || cfg.Workers > s.workers {
		cfg.Workers = s.workers
	}
	cfg.Scheduler = s.sched
	if s.st != nil && !r.NoCache {
		cfg.Cache = s.st
	}
	return cfg
}

// errorRecord is the NDJSON record reporting a campaign failure after
// streaming has begun (the status line is already committed by then).
// Cancelled distinguishes a deliberate stop — partial checkpoints are
// flushed and resubmission resumes — from an engine fault.
type errorRecord struct {
	Type      string `json:"type"`
	Error     string `json:"error"`
	Cancelled bool   `json:"cancelled,omitempty"`
}

// errCancelled is the cancel cause installed by DELETE
// /v1/campaigns/{id}; sweep.Run returns it as the campaign error.
var errCancelled = errors.New("campaign cancelled by DELETE /v1/campaigns/{id}")

// maxRequestBody bounds every body the daemon decodes: POST
// /v1/campaigns and POST /v1/points/{hash}/claim. The largest legitimate
// request — a campaign with every field set — is a few hundred bytes;
// 1 MiB leaves room for any client's formatting and stops one request
// from growing the daemon's memory.
const maxRequestBody = 1 << 20

// decodeCampaignRequest parses and validates a POST /v1/campaigns body.
// On failure code is the envelope's error code; either way the daemon
// answers 400.
func decodeCampaignRequest(body io.Reader) (req CampaignRequest, code string, err error) {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, codeBadRequest, fmt.Errorf("bad request body: %v", err)
	}
	if err := validateRequest(req); err != nil {
		return req, codeInvalidArgument, err
	}
	return req, "", nil
}

func (s *Server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
	defer io.Copy(io.Discard, r.Body)
	req, code, err := decodeCampaignRequest(r.Body)
	if err != nil {
		apiError(w, http.StatusBadRequest, code, err.Error())
		return
	}
	e, _ := exp.Find(req.Experiment)
	cfg := s.campaignConfig(req)
	// The request's trace_sample is the campaign's sampling decision;
	// then the campaign root span (inert when unsampled), which every
	// span parents under. Spans name the daemon "local".
	var rec *trace.Recorder
	if req.TraceSample == "on" {
		rec = trace.New("local")
	}
	tc := s.tele.New(req.Experiment, rec)
	defer s.tele.Finish(tc)
	cfg.Telemetry = tc
	root := rec.Campaign(req.Experiment)
	cfg.Trace = root.Context()
	defer root.End()

	// Campaign lifecycle: by default the campaign detaches from the
	// connection (a vanished client must not waste the shots already
	// spent — points keep landing in the store). ?detach=0 opts into
	// client-disconnect cancellation for interactive use. Either way
	// DELETE /v1/campaigns/{id} cancels, and cancellation is observed
	// at batch boundaries with checkpoints flushed, so a resubmission
	// resumes instead of restarting.
	base := context.Background()
	if r.URL.Query().Get("detach") == "0" {
		base = r.Context()
	}
	ctx, cancel := context.WithCancelCause(base)
	defer cancel(nil)
	cfg.Context = ctx
	s.cancelMu.Lock()
	s.cancels[tc.ID()] = cancel
	s.cancelMu.Unlock()
	defer func() {
		s.cancelMu.Lock()
		delete(s.cancels, tc.ID())
		s.cancelMu.Unlock()
	}()

	// The campaign ID rides a header (not a stream record) so existing
	// NDJSON consumers keep parsing points and tables untouched; clients
	// follow it to GET /v1/campaigns/{id}/signals.
	w.Header().Set("X-Radqec-Campaign-Id", strconv.FormatInt(tc.ID(), 10))
	if rec.Sampled() {
		// The trace ID rides a header too, for
		// GET /v1/traces/{trace_id}.
		w.Header().Set("X-Radqec-Trace-Id", rec.TraceID().String())
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no") // keep reverse proxies from batching the stream
	// The handler goroutine is the stream's only writer. OnPoint runs
	// on a shared pool worker and only queues the record; the campaign
	// runs on its own goroutine and queues its terminal record last.
	recs := make(chan any, streamQueue)
	first := true // OnPoint calls are serialised
	cfg.OnPoint = func(res sweep.Result) {
		recs <- exp.NewPointRecord(e.Name, res)
		if first {
			// The first record is the client's time to first byte: hand
			// this worker's processor to the writer now, not whenever
			// the worker next parks. Later records wait and go out as a
			// burst.
			first = false
			runtime.Gosched()
		}
	}
	// The headers go out with the submission, not with the first point:
	// the id is the client's cancel and signals handle, and the first
	// point can sit behind another campaign's long batch.
	if flusher, ok := w.(http.Flusher); ok {
		flusher.Flush()
	}
	// A panic in the campaign (a bug in a figure builder; worker panics
	// are isolated by the scheduler) is re-raised on the handler
	// goroutine, where net/http recovers it and drops this connection,
	// not the daemon.
	var runPanic any
	go func() {
		defer close(recs)
		defer func() { runPanic = recover() }()
		recs <- s.runCampaign(e, cfg, req, tc.ID(), rec)
	}()
	writeStream(w, recs)
	if runPanic != nil {
		panic(runPanic)
	}
}

// runCampaign runs the experiment and returns the stream's terminal
// record: the table, or the error that ended the campaign.
func (s *Server) runCampaign(e exp.Experiment, cfg exp.Config, req CampaignRequest, id int64, rec *trace.Recorder) any {
	start := time.Now()
	tab, err := e.Run(cfg)
	if err == nil {
		return exp.NewTableRecord(e.Name, tab, time.Since(start))
	}
	cancelled := errors.Is(err, context.Canceled) || errors.Is(err, errCancelled)
	var pe *sweep.PointError
	switch {
	case errors.As(err, &pe):
		// A worker panic: the recover boundary converted it into a
		// per-point error and this campaign alone failed. Log the
		// captured stack for the operator; siblings and the daemon
		// keep running.
		s.workerPanics.Add(1)
		s.campaignErrors.Add(1)
		log := s.log
		if rec.Sampled() {
			log = log.With("trace_id", rec.TraceID().String())
		}
		log.Error("server: sweep worker panic failed the campaign",
			"campaign", id,
			"experiment", req.Experiment,
			"point", pe.Key,
			"hash", pe.Hash,
			"panic", fmt.Sprint(pe.Value),
			"stack", string(pe.Stack))
	case cancelled:
		s.campaignsCancelled.Add(1)
	default:
		s.campaignErrors.Add(1)
	}
	// Cancellation flushed partial checkpoints at batch boundaries;
	// make them durable now so an immediate resubmission resumes.
	if s.st != nil {
		s.st.Sync()
	}
	return errorRecord{Type: "error", Error: err.Error(), Cancelled: cancelled}
}

// writeStream writes a campaign's records as NDJSON until recs closes;
// it is the only code that touches w. The first record is flushed on
// its own, so the time to first record does not wait for a burst. After
// that the stream flushes only when the queue is empty: a burst of
// records queued while one was being written costs one write, and
// records arriving one at a time still flush one at a time. Each write
// gets a fresh deadline, and after the first failed write the stream is
// gone: the rest are drained unwritten, so a pool worker waits on a
// full queue at most one streamWriteTimeout. The campaign itself keeps
// running either way, so its points still land in the store for the
// next submission.
func writeStream(w http.ResponseWriter, recs <-chan any) {
	flusher, _ := w.(http.Flusher)
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)
	first, gone := true, false
	for v := range recs {
		if gone {
			continue
		}
		// Failpoints for chaos tests: stall one stream write, or drop
		// the client as a write failure would.
		faultinject.Eval(faultinject.StreamStall)
		if faultinject.Eval(faultinject.StreamDrop) != nil {
			gone = true
			continue
		}
		rc.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
		if enc.Encode(v) != nil {
			gone = true
			continue
		}
		if (first || len(recs) == 0) && flusher != nil {
			flusher.Flush()
		}
		first = false
	}
}

// handleCampaignCancel cancels a running campaign. The campaign
// observes the cancel at its next batch boundary, flushes partial
// checkpoints, and ends its stream with a cancelled error record;
// resubmitting the same request resumes from those checkpoints.
func (s *Server) handleCampaignCancel(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		apiError(w, http.StatusBadRequest, codeBadRequest, fmt.Sprintf("bad campaign id %q", r.PathValue("id")))
		return
	}
	s.cancelMu.Lock()
	cancel, ok := s.cancels[id]
	s.cancelMu.Unlock()
	if !ok {
		apiError(w, http.StatusNotFound, codeNotFound, fmt.Sprintf("campaign %d is not running", id))
		return
	}
	cancel(errCancelled)
	writeJSON(w, map[string]any{"status": "cancelling", "id": id})
}

// streamWriteTimeout bounds how long one NDJSON record write may block
// on a stalled client before the stream is abandoned. The handler
// goroutine does the writing; a pool worker only waits when the
// campaign's record queue is full, so a dead connection can pin a
// shared pool worker for at most this long.
const streamWriteTimeout = 30 * time.Second

// streamQueue is a campaign stream's record queue capacity: the records
// a campaign may run ahead of its writer before a pool worker waits.
// 256 holds a whole replayed fig5 (161 records) and costs 4 KiB a
// stream.
const streamQueue = 256

// Signals-stream tuning: how many ring entries one poll drains, and how
// long a live follow sleeps when the ring is drained.
const (
	signalsChunk        = 256
	signalsPollInterval = 100 * time.Millisecond
)

// signalRecord and statsRecord are the NDJSON records of the signals
// stream: every telemetry signal flattened under type "signal", closed
// by one aggregate "stats" record.
type signalRecord struct {
	Type string `json:"type"`
	telemetry.Signal
}

type statsRecord struct {
	Type string `json:"type"`
	telemetry.Stats
}

// handleSignals streams a campaign's telemetry ring as NDJSON: all
// retained signals from the requested sequence (?from=N, default 0),
// then — unless ?follow=0 asks for a snapshot — new signals as the
// campaign produces them, closed by a final stats record once the
// campaign finishes. Readers that fall more than the ring size behind
// see a sequence gap, never blocked writers: telemetry recording is
// lock-free and the stream only polls.
func (s *Server) handleSignals(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		apiError(w, http.StatusBadRequest, codeBadRequest, fmt.Sprintf("bad campaign id %q", r.PathValue("id")))
		return
	}
	c, ok := s.tele.Get(id)
	if !ok {
		apiError(w, http.StatusNotFound, codeNotFound, fmt.Sprintf("campaign %d unknown (not active or rotated out of the recent-campaign tail)", id))
		return
	}
	var seq uint64
	if from := r.URL.Query().Get("from"); from != "" {
		seq, err = strconv.ParseUint(from, 10, 64)
		if err != nil {
			apiError(w, http.StatusBadRequest, codeBadRequest, fmt.Sprintf("bad from sequence %q", from))
			return
		}
	}
	follow := r.URL.Query().Get("follow") != "0"
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no")
	flusher, _ := w.(http.Flusher)
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)
	for {
		sigs, next := c.Since(seq, signalsChunk)
		seq = next
		for _, sig := range sigs {
			rc.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
			if enc.Encode(signalRecord{Type: "signal", Signal: sig}) != nil {
				return
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		if len(sigs) > 0 {
			continue // drain the backlog before sleeping
		}
		// The done check comes after a drained read, so every signal
		// recorded before Finish is streamed before the stream closes.
		if c.Done() || !follow {
			break
		}
		select {
		case <-r.Context().Done():
			return
		case <-time.After(signalsPollInterval):
		}
	}
	rc.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
	if enc.Encode(statsRecord{Type: "stats", Stats: c.Stats()}) == nil && flusher != nil {
		flusher.Flush()
	}
}

// handleCampaignTrace serves a campaign's recorded trace spans as
// NDJSON; ?format=chrome renders Chrome trace-event JSON loadable in
// Perfetto instead.
func (s *Server) handleCampaignTrace(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		apiError(w, http.StatusBadRequest, codeBadRequest, fmt.Sprintf("bad campaign id %q", r.PathValue("id")))
		return
	}
	var rec *trace.Recorder
	if c, ok := s.tele.Get(id); ok {
		rec = c.Recorder()
	}
	if rec == nil {
		apiError(w, http.StatusNotFound, codeNotFound,
			fmt.Sprintf("campaign %d has no recorded trace (unsampled, unknown, or rotated out of the recent-campaign tail)", id))
		return
	}
	serveTrace(w, r, rec)
}

// handleTraceByID serves a trace by its 32-hex trace id — the handle an
// X-Radqec-Trace-Id header or a metrics exemplar's trace_id gives. Same
// query surface as the campaign form.
func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	tid, ok := parseTraceID(r.PathValue("trace_id"))
	if !ok {
		apiError(w, http.StatusBadRequest, codeBadRequest,
			fmt.Sprintf("bad trace id %q (want 32 hex characters)", r.PathValue("trace_id")))
		return
	}
	rec := s.tele.ByTrace(tid)
	if rec == nil {
		apiError(w, http.StatusNotFound, codeNotFound,
			fmt.Sprintf("trace %s not recorded", tid))
		return
	}
	serveTrace(w, r, rec)
}

// parseTraceID parses a 32-hex-character trace id.
func parseTraceID(raw string) (trace.TraceID, bool) {
	var tid trace.TraceID
	b, err := hex.DecodeString(raw)
	if err != nil || len(b) != len(tid) {
		return tid, false
	}
	copy(tid[:], b)
	return tid, true
}

// serveTrace renders a recorder's spans in start order as NDJSON span
// records or, with ?format=chrome, as a Chrome trace-event JSON
// document.
func serveTrace(w http.ResponseWriter, r *http.Request, rec *trace.Recorder) {
	format := r.URL.Query().Get("format")
	if format != "" && format != "ndjson" && format != "chrome" {
		apiError(w, http.StatusBadRequest, codeBadRequest, fmt.Sprintf("bad format %q (want ndjson or chrome)", format))
		return
	}
	if format == "chrome" {
		w.Header().Set("Content-Type", "application/json")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	trace.Write(w, rec.Spans(), format == "chrome")
}

// experimentInfo is one row of GET /v1/experiments.
type experimentInfo struct {
	Name string `json:"name"`
	Desc string `json:"desc"`
	// XXZZRad marks campaigns entering the collapsed-branch
	// approximation domain of the batch engine: fractional strikes on
	// XXZZ circuits (see exp.Experiment.XXZZRad).
	XXZZRad bool `json:"xxzz_rad"`
}

func (s *Server) handleExperiments(w http.ResponseWriter, _ *http.Request) {
	out := make([]experimentInfo, 0, 16)
	for _, e := range exp.Experiments() {
		out = append(out, experimentInfo{Name: e.Name, Desc: e.Desc, XXZZRad: e.XXZZRad})
	}
	writeJSON(w, out)
}

// errNoStore reports cache endpoints hit on a storeless server.
var errNoStore = errors.New("no store attached (start the daemon with -store)")

// requireStore writes the storeless-daemon error and reports whether
// the handler may proceed.
func (s *Server) requireStore(w http.ResponseWriter, r *http.Request) bool {
	if s.st == nil {
		apiError(w, http.StatusNotFound, codeNoStore, errNoStore.Error())
		return false
	}
	return true
}

func (s *Server) handleCacheStats(w http.ResponseWriter, r *http.Request) {
	if !s.requireStore(w, r) {
		return
	}
	writeJSON(w, s.st.Stats())
}

func (s *Server) handleCacheEntries(w http.ResponseWriter, r *http.Request) {
	if !s.requireStore(w, r) {
		return
	}
	writeJSON(w, s.st.Entries())
}

func (s *Server) handleCacheEntry(w http.ResponseWriter, r *http.Request) {
	if !s.requireStore(w, r) {
		return
	}
	hash := r.PathValue("hash")
	cp, ok := s.st.Lookup(hash)
	if !ok {
		apiError(w, http.StatusNotFound, codeNotFound, fmt.Sprintf("hash %q not committed in store", hash))
		return
	}
	writeJSON(w, client.PointResponse{Hash: hash, Point: cp})
}

func (s *Server) handleCacheClear(w http.ResponseWriter, r *http.Request) {
	if !s.requireStore(w, r) {
		return
	}
	if err := s.st.Clear(); err != nil {
		apiError(w, http.StatusInternalServerError, codeStoreError, err.Error())
		return
	}
	writeJSON(w, map[string]string{"status": "cleared"})
}

func (s *Server) handleCacheInvalidate(w http.ResponseWriter, r *http.Request) {
	if !s.requireStore(w, r) {
		return
	}
	hash := r.PathValue("hash")
	if !s.st.Invalidate(hash) {
		apiError(w, http.StatusNotFound, codeNotFound, fmt.Sprintf("hash %q not in store", hash))
		return
	}
	writeJSON(w, map[string]string{"status": "invalidated", "hash": hash})
}

func (s *Server) handleCacheCompact(w http.ResponseWriter, r *http.Request) {
	if !s.requireStore(w, r) {
		return
	}
	if err := s.st.Compact(); err != nil {
		apiError(w, http.StatusInternalServerError, codeStoreError, err.Error())
		return
	}
	writeJSON(w, s.st.Stats())
}

// Point-lookup long-poll tuning: the wait cap and the commit-poll
// cadence.
const (
	pointWaitMax  = 30 * time.Second
	pointWaitPoll = 25 * time.Millisecond
)

// handlePointLookup serves one committed result by content hash.
// ?wait=DUR long-polls up to the cap, so a caller waiting on a point
// mid-compute picks the result up the moment it commits.
func (s *Server) handlePointLookup(w http.ResponseWriter, r *http.Request) {
	if !s.requireStore(w, r) {
		return
	}
	hash := r.PathValue("hash")
	var wait time.Duration
	if ws := r.URL.Query().Get("wait"); ws != "" {
		var err error
		if wait, err = time.ParseDuration(ws); err != nil {
			apiError(w, http.StatusBadRequest, codeBadRequest, fmt.Sprintf("bad wait duration %q", ws))
			return
		}
		if wait > pointWaitMax {
			wait = pointWaitMax
		}
	}
	deadline := time.Now().Add(wait)
	for {
		if cp, ok := s.st.Lookup(hash); ok {
			writeJSON(w, client.PointResponse{Hash: hash, Point: cp})
			return
		}
		if wait <= 0 || !time.Now().Before(deadline) {
			apiError(w, http.StatusNotFound, client.CodeNotCommitted, fmt.Sprintf("hash %q has no committed result", hash))
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-time.After(pointWaitPoll):
		}
	}
}

// claimRequest is the body of POST /v1/points/{hash}/claim.
type claimRequest struct {
	Owner string `json:"owner"`
	TTLMS int64  `json:"ttl_ms,omitempty"`
}

// maxClaimTTL caps a granted point lease: a client may ask for less,
// never for more, so no lease outlives it.
const maxClaimTTL = time.Minute

// handlePointClaim arbitrates the compute lease on a content hash.
// Every outcome is a 200 with a status: "committed" (the result already
// exists; fetch it instead of computing), "granted" (the caller owns
// the compute until the TTL lapses; ttl_ms echoes the TTL granted,
// capped at maxClaimTTL), or "held" (another owner is computing; back
// off).
func (s *Server) handlePointClaim(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
	defer io.Copy(io.Discard, r.Body)
	hash := r.PathValue("hash")
	var req claimRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		apiError(w, http.StatusBadRequest, codeBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	if req.Owner == "" {
		apiError(w, http.StatusBadRequest, codeInvalidArgument, "owner is required")
		return
	}
	// A committed result beats any lease: the arbitration exists only
	// to keep two owners from computing the same point, and a committed
	// point is past computing.
	if s.st != nil {
		if _, ok := s.st.Lookup(hash); ok {
			writeJSON(w, client.Claim{Status: client.ClaimCommitted})
			return
		}
	}
	ttl := min(time.Duration(req.TTLMS)*time.Millisecond, maxClaimTTL)
	ok, holder, remaining := s.leases.Claim(hash, req.Owner, ttl)
	if !ok {
		writeJSON(w, client.Claim{Status: client.ClaimHeld, Holder: holder, RemainingMS: remaining.Milliseconds()})
		return
	}
	writeJSON(w, client.Claim{Status: client.ClaimGranted, TTLMS: remaining.Milliseconds()})
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	body := map[string]any{
		"status":           "ok",
		"uptime_seconds":   time.Since(s.start).Seconds(),
		"workers":          s.workers,
		"store":            s.st != nil,
		"campaigns_active": s.tele.Counts().Active,
	}
	if s.st != nil && s.st.Stats().Degraded {
		// The store lost its writes but reads still serve: the daemon
		// stays useful, so this is "degraded", not down.
		body["status"] = "degraded"
		body["store_degraded"] = true
	}
	writeJSON(w, body)
}

// handleMetrics serves Prometheus text exposition format 0.0.4: every
// series carries # HELP and # TYPE lines, and the per-campaign gauges
// are labelled by campaign id and experiment. A scrape that Accepts
// application/openmetrics-text gets the OpenMetrics rendering
// instead, whose latency-histogram buckets carry
// trace-id exemplars (the classic 0.0.4 parser can't represent
// exemplars, so they are omitted there).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	openMetrics := strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text")
	if openMetrics {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
	} else {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	}
	if openMetrics {
		defer fmt.Fprintln(w, "# EOF")
	}
	// Path latency histograms, fed from every turn record: decode and
	// store commit, each bucket remembering the sampled trace that last
	// landed in it.
	for _, h := range trace.PathHistograms() {
		h.WritePrometheus(w, "radqecd_"+h.Path()+"_seconds", openMetrics)
	}
	write := func(name, kind, help string, v any) {
		fmt.Fprintf(w, "# HELP radqecd_%s %s\n# TYPE radqecd_%s %s\nradqecd_%s %v\n", name, help, name, kind, name, v)
	}
	write("uptime_seconds", "gauge", "Seconds since the daemon started.", time.Since(s.start).Seconds())
	write("workers", "gauge", "Size of the shared sweep worker pool.", s.workers)
	// Campaign, point and shot counts are the registry's fold of the
	// campaigns' turn records, the numbers their own Stats add up to.
	n := s.tele.Counts()
	write("campaigns_total", "counter", "Campaigns accepted since start.", n.Campaigns)
	write("campaigns_active", "gauge", "Campaigns currently running.", n.Active)
	write("campaign_errors_total", "counter", "Campaigns that ended in an error.", s.campaignErrors.Load())
	write("campaigns_cancelled_total", "counter", "Campaigns cancelled by DELETE or client disconnect.", s.campaignsCancelled.Load())
	write("worker_panics_total", "counter", "Worker panics converted into per-campaign errors.", s.workerPanics.Load())
	write("points_computed_total", "counter", "Sweep points computed by engines (cache misses).", n.PointsComputed)
	write("points_cached_total", "counter", "Sweep points served from the result store.", n.PointsCached)
	write("shots_computed_total", "counter", "Monte-Carlo shots executed by engines.", n.Shots)
	// The process-wide code registry: matcher calls over triggered lanes
	// is the decoder memos' miss rate, high on the first campaign after
	// start-up and falling as they warm.
	reg := exp.Registry()
	write("decoder_triggered_lanes_total", "counter", "Decoded lanes that saw a detection event, either engine, all decoders.", reg.Decoder.TriggeredLanes)
	write("decoder_matcher_calls_total", "counter", "Triggered lanes no memo answered: exact-parity answers plus blossom, union-find or greedy calls.", reg.Decoder.MatcherCalls)
	write("decoder_exact_parity_total", "counter", "Matcher calls the exact-parity tier answered without the blossom.", reg.Decoder.ExactParity)
	write("decoder_matched_defects_total", "counter", "Defects the matcher calls matched; over the calls, the mean defect count k.", reg.Decoder.MatchedDefects)
	write("decoder_memo_entries", "gauge", "Syndromes memoised on the resident codes, all three decoders.", reg.Decoder.MemoEntries)
	write("prepared_hits_total", "counter", "Circuit prepares served from the code registry.", reg.Hits)
	write("prepared_misses_total", "counter", "Circuit prepares that transpiled.", reg.Misses)
	write("prepared_evictions_total", "counter", "Codes dropped from the registry at its cap, with their prepared circuits.", reg.Evictions)
	if s.st != nil {
		st := s.st.Stats()
		write("store_commits", "gauge", "Committed points resident in the result store.", st.Commits)
		write("store_checkpoints", "gauge", "Partial checkpoints resident in the result store.", st.Checkpoints)
		write("store_segment_bytes", "gauge", "Bytes in the result store's log segments.", st.SegmentBytes)
		write("store_hits_total", "counter", "Result-store lookups that hit.", st.Hits)
		write("store_misses_total", "counter", "Result-store lookups that missed.", st.Misses)
		degraded := 0
		if st.Degraded {
			degraded = 1
		}
		write("store_degraded", "gauge", "1 while the store is in read-through/no-write degraded mode.", degraded)
		write("store_quarantined_records", "gauge", "Corrupt records quarantined at replay.", st.Quarantined)
		write("store_write_retries_total", "counter", "Segment append attempts retried after a transient fault.", st.WriteRetries)
		write("store_write_errors_total", "counter", "Segment appends that exhausted their retry budget.", st.WriteErrors)
		write("store_recoveries_total", "counter", "Degraded-to-healthy store transitions.", st.Recoveries)
	}
	// Per-campaign gauges, one labelled line per active campaign under
	// a single HELP/TYPE block per series.
	active := s.tele.Active()
	if len(active) == 0 {
		return
	}
	type row struct {
		labels string
		stats  telemetry.Stats
	}
	rows := make([]row, 0, len(active))
	for _, c := range active {
		rows = append(rows, row{
			labels: fmt.Sprintf(`{campaign="%d",experiment="%s"}`, c.ID(), c.Experiment()),
			stats:  c.Stats(),
		})
	}
	gauge := func(name, help string, value func(telemetry.Stats) any) {
		fmt.Fprintf(w, "# HELP radqecd_%s %s\n# TYPE radqecd_%s gauge\n", name, help, name)
		for _, r := range rows {
			fmt.Fprintf(w, "radqecd_%s%s %v\n", name, r.labels, value(r.stats))
		}
	}
	gauge("campaign_shots_per_sec", "Aggregate engine shot rate of the campaign.", func(st telemetry.Stats) any { return st.ShotsPerSec })
	gauge("campaign_queue_depth", "Points of the campaign still queued on the scheduler.", func(st telemetry.Stats) any { return st.QueueDepth })
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// Stable machine-readable error codes of the v1 envelope. Clients
// branch on these, never on message text.
const (
	codeBadRequest      = "bad_request"      // unparsable body, id, or query parameter
	codeInvalidArgument = "invalid_argument" // parsed fine, failed validation
	codeNotFound        = "not_found"        // campaign, hash, or entry unknown
	codeNoStore         = "no_store"         // cache/point API on a storeless daemon
	codeStoreError      = "store_error"      // store operation failed
)

// apiError writes the uniform v1 error envelope
// {"error":{"code","message"}}.
func apiError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]any{
		"error": map[string]string{"code": code, "message": msg},
	})
}
