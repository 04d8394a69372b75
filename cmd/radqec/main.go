// Command radqec regenerates the tables behind every figure of the
// paper's evaluation (Figures 3-8) plus the ablation studies.
//
// Usage:
//
//	radqec [flags] <experiment>
//
// Experiments: fig3 fig4 fig5 fig6 fig7 fig8 ablation-decoder
// ablation-ns ablation-layout ablation-rounds memory threshold
// logical all
//
// Flags:
//
//	-shots N     shots per measured point (default 2000)
//	-seed N      campaign seed (default 1)
//	-workers N   points run concurrently (default GOMAXPROCS)
//	-p RATE      intrinsic physical error rate, 0 < RATE <= 1 (default
//	             0.01)
//	-ns N        temporal samples of the fault decay (default 10, at
//	             most 1000)
//	-rounds N    stabilization rounds per code (default 2, the paper's
//	             protocol; >2 decodes over the multi-round space-time
//	             detector-error model; at most 100)
//	-engine E    simulation engine: batch (default; empty also means
//	             batch) or tableau. batch is the bit-parallel
//	             Pauli-frame engine, 512 shots per tile (universal over
//	             the Clifford set and exact for saturated strikes;
//	             fractional radiation resets on superposed XXZZ sites use
//	             the collapsed-branch approximation); tableau is the
//	             exact-oracle stabilizer tableau
//	-ci W        target Wilson 95% half-width; >0 turns on adaptive
//	             shot allocation per point (default off)
//	-maxshots N  adaptive per-point shot cap (0 = worst-case count
//	             guaranteeing -ci at any rate)
//	-store DIR   content-addressed result store: completed points are
//	             served from DIR instead of recomputed, new points are
//	             committed to it, and an interrupted run's points pick
//	             back up at their last checkpointed batch; the same
//	             directory a radqecd daemon serves
//	-stats       print a per-experiment telemetry summary to stderr:
//	             shots/s, chunk/batch counts, set-up vs run time and the
//	             decode share of run, cache traffic, allocation and the
//	             engines the points ran on
//	-trace-out F   record trace spans for the run and write
//	             them to F as NDJSON (one span per line, the
//	             /v1/campaigns/{id}/trace record shape); tracing never
//	             changes results, only observability
//	-trace-chrome F  record spans and write them to F as Chrome
//	             trace-event JSON, loadable in Perfetto or
//	             chrome://tracing
//	-log-format text|json  structured-log rendering (default text)
//	-log-level L minimum log level: debug, info, warn, or error
//	             (default info)
//	-cpuprofile F  write a pprof CPU profile of the run to F
//	-memprofile F  write a pprof heap profile after the run to F
//	-csv         emit CSV instead of aligned text
//	-json        stream one JSON record per completed sweep point and
//	             emit each table as a JSON record
//	-o FILE      write to FILE instead of stdout
//
// Every figure decodes with the paper's decoder, minimum-weight perfect
// matching (blossom) on the unit-weight graph; ablation-decoder alone
// compares it with union-find and greedy matching.
//
// The campaign flags (-shots -seed -workers -p -ns -rounds -engine -ci
// -maxshots) are the fields of exp.Config, and
// exp.Config.Validate — the one check of a campaign's domain, shared
// with the radqecd daemon and the library façade — checks them. A value
// outside the domain, or an unknown experiment, exits 2 with a message
// naming the flag, before -store is opened or -o truncated.
//
// The first SIGINT/SIGTERM cancels the campaign at its next batch
// boundary — in-progress points checkpoint, the store and any active
// pprof profiles flush, and the process exits 128+signal with a
// resumable store behind it. A second signal skips the boundary wait
// and exits immediately (the store still flushes whole records).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"radqec/internal/exp"
	"radqec/internal/logsetup"
	"radqec/internal/store"
	"radqec/internal/sweep"
	"radqec/internal/telemetry"
	"radqec/internal/trace"
)

func main() {
	def := exp.Config{}.Defaults()
	shots := flag.Int("shots", def.Shots, "shots per measured point")
	seed := flag.Uint64("seed", exp.DefaultSeed, "campaign seed")
	workers := flag.Int("workers", 0, "points run concurrently (0 = GOMAXPROCS)")
	p := flag.Float64("p", def.P, "intrinsic physical error rate (0 < p <= 1)")
	ns := flag.Int("ns", def.NS, "temporal samples of the fault decay")
	engine := flag.String("engine", def.Engine, "simulation engine: batch or tableau")
	rounds := flag.Int("rounds", def.Rounds, "stabilization rounds per code (>= 2; >2 opens the multi-round memory workload)")
	ci := flag.Float64("ci", 0, "target Wilson 95% half-width per point (>0 enables adaptive shots)")
	maxShots := flag.Int("maxshots", 0, "adaptive per-point shot cap (0 = worst-case count for -ci)")
	storeDir := flag.String("store", "", "content-addressed result store directory (empty disables caching)")
	statsOut := flag.Bool("stats", false, "print a per-experiment telemetry summary to stderr")
	traceOut := flag.String("trace-out", "", "record trace spans and write them to this file as NDJSON")
	traceChrome := flag.String("trace-chrome", "", "record trace spans and write them to this file as Chrome trace-event JSON")
	logFormat := flag.String("log-format", "text", "structured-log rendering: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, or error")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the experiment run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile after the experiment run to this file")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	jsonOut := flag.Bool("json", false, "stream per-point JSON records and emit tables as JSON")
	outPath := flag.String("o", "", "write output to file instead of stdout")
	flag.Usage = usage
	flag.Parse()

	if flag.NArg() != 1 {
		usage()
		os.Exit(2)
	}
	// Every usage error comes before the first file is touched: the
	// experiment is selected and every flag validated before the store
	// is opened and -o truncated.
	name := flag.Arg(0)
	var selected []exp.Experiment
	for _, e := range exp.Experiments() {
		if e.Name == name || name == "all" {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "radqec: unknown experiment %q\n\n", name)
		usage()
		os.Exit(2)
	}
	cfg := exp.Config{
		Shots:    *shots,
		Seed:     *seed,
		Workers:  *workers,
		P:        *p,
		NS:       *ns,
		Rounds:   *rounds,
		CI:       *ci,
		MaxShots: *maxShots,
		Engine:   *engine,
	}
	// The campaign domain is checked in one place for every front end.
	// The flags are its fields and carry their defaults already, so the
	// config is validated as given: a zero -shots, -p, -ns or -rounds is
	// an error, not a default.
	if err := cfg.Validate(); err != nil {
		usageError("-" + err.Error())
	}
	// Past Validate only an empty -engine is unset.
	cfg = cfg.Defaults()
	if _, err := logsetup.Init(os.Stderr, *logFormat, *logLevel); err != nil {
		usageError(err.Error())
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir, store.Options{})
		if err != nil {
			fatal(err)
		}
		cfg.Cache = st
		resultStore = st
	}
	// The campaign context is what the signal handler cancels: the sweep
	// observes it at the next batch boundary, flushes every in-progress
	// point's checkpoint, and returns the cause.
	runCtx, cancelRun := context.WithCancelCause(context.Background())
	defer cancelRun(nil)
	cfg.Context = runCtx

	defer closeStoreOnce()

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		out = f
	}

	// Profiling hooks for decode-path optimisation work, started only
	// after every usage check so no usage-error exit can strand an open
	// profile: the CPU profile covers the experiment loop, the
	// heap profile snapshots
	// the end state (after a GC, so it shows live campaign structures,
	// not transient shot buffers). Flushing runs through flushProfiles
	// so fatal's os.Exit cannot leave a truncated CPU profile or skip
	// the heap profile — an errored run is exactly when the profile is
	// wanted.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		stopCPU := func() {
			pprof.StopCPUProfile()
			f.Close()
		}
		prev := flushProfiles
		flushProfiles = func() {
			stopCPU()
			prev()
		}
	}
	if *memProfile != "" {
		path := *memProfile
		prev := flushProfiles
		flushProfiles = func() {
			prev()
			writeHeapProfile(path)
		}
	}
	// Local trace recording, on exactly when there is somewhere to write
	// the spans: one recorder spans the whole invocation (each experiment
	// gets its own campaign root span under it), and the dump rides the
	// flushProfiles chain so an errored or interrupted run still writes
	// the spans it collected — exactly when the trace is wanted.
	var recorder *trace.Recorder
	if *traceOut != "" || *traceChrome != "" {
		recorder = trace.New("cli")
		rec, nd, chrome := recorder, *traceOut, *traceChrome
		prev := flushProfiles
		flushProfiles = func() {
			prev()
			dumpTrace(rec, nd, chrome)
		}
	}
	defer flushOnce()
	// The signal handler flushes everything an interrupted campaign
	// wants back: active pprof profiles and the result store's NDJSON
	// segment (whose batch-level checkpoints are already on disk), then
	// exits with the conventional 128+signal status. It is started only
	// after the profile hooks and store are installed — goroutine
	// creation gives the happens-before edge that makes the
	// flushProfiles chain and resultStore safely visible to it. The
	// store's append-under-mutex discipline means Close lands between
	// whole records, so the killed run leaves a cleanly resumable store.
	// Notify is registered here, not inside the goroutine, so there is
	// no startup window where a signal still takes the default
	// disposition after the store and profile hooks are live.
	// The first signal cancels the campaign context: workers stop at
	// their next batch boundary with every in-progress point's
	// checkpoint flushed, and the experiment loop exits through the
	// graceful path below. A second signal is the escape hatch — sync
	// the store and exit immediately without waiting for the boundary,
	// leaving the checkpoint trail a kill leaves.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		if n, ok := sig.(syscall.Signal); ok {
			interruptSignal.Store(int32(n))
		} else {
			interruptSignal.Store(-1)
		}
		slog.Info("radqec: cancelling at the next batch boundary (signal again to exit now)", "signal", sig.String())
		cancelRun(fmt.Errorf("interrupted by %v", sig))
		sig = <-sigc
		flushOnce()
		if resultStore != nil {
			// Sync, not Close: a close-time rewrite that has not
			// started is skipped. Sync takes the store's lock, so one
			// already running finishes first.
			if err := resultStore.Sync(); err != nil {
				slog.Error("radqec: store sync failed", "error", err)
			}
			slog.Warn("radqec: store flushed; rerun with -store to continue", "signal", sig.String(), "store", *storeDir)
		}
		if n, ok := sig.(syscall.Signal); ok {
			os.Exit(128 + int(n))
		}
		os.Exit(1)
	}()
	// The batch engine approximates fractional radiation resets on
	// superposed XXZZ sites (collapsed-branch coin; saturated strikes
	// are exact, see package frame); say so once on stderr — only when
	// a selected experiment actually enters that domain — so
	// default-flag reproduction runs know the exact oracle.
	if cfg.Engine == exp.EngineBatch {
		for _, e := range selected {
			if e.XXZZRad {
				slog.Warn("radqec: fractional radiation resets on superposed XXZZ sites use the collapsed-branch approximation; -engine tableau is the exact oracle",
					"engine", cfg.Engine)
				break
			}
		}
	}
	enc := json.NewEncoder(out)
	var campaignID int64
	for _, e := range selected {
		if *jsonOut {
			// The sweep engine serialises OnResult calls, so the encoder
			// needs no extra locking.
			expName := e.Name
			cfg.OnPoint = func(r sweep.Result) {
				if err := enc.Encode(exp.NewPointRecord(expName, r)); err != nil {
					fatal(err)
				}
			}
		}
		var regBefore exp.RegistryStats
		if *statsOut {
			campaignID++
			cfg.Telemetry = telemetry.NewCampaign(campaignID, e.Name)
			regBefore = exp.Registry()
		}
		root := recorder.Campaign(e.Name) // inert without a trace file
		cfg.Trace = root.Context()
		start := time.Now()
		tab, err := e.Run(cfg)
		root.SetError(err)
		root.End()
		if err != nil {
			if sig := interruptSignal.Load(); sig != 0 {
				// Graceful cancellation: the sweep stopped at a batch
				// boundary and flushed its checkpoints. Make them
				// durable and exit with the conventional signal status.
				flushOnce()
				if resultStore != nil {
					closeStoreOnce()
					slog.Warn("radqec: interrupted; store flushed; rerun with -store to continue", "store", *storeDir)
				}
				if sig > 0 {
					os.Exit(128 + int(sig))
				}
				os.Exit(1)
			}
			fatal(err)
		}
		if tel := cfg.Telemetry; tel != nil {
			tel.Finish()
			printStats(tel.Stats(), regBefore, exp.Registry())
			cfg.Telemetry = nil
		}
		switch {
		case *jsonOut:
			if err := enc.Encode(exp.NewTableRecord(e.Name, tab, time.Since(start))); err != nil {
				fatal(err)
			}
		case *csv:
			tab.WriteCSV(out)
		default:
			tab.WriteText(out)
			fmt.Fprintf(out, "(%s completed in %v)\n\n", e.Name, time.Since(start).Round(time.Millisecond))
		}
	}
}

// printStats writes the -stats telemetry summary for one experiment to
// stderr: engine throughput (one rate per engine when the campaign ran
// more than one), the points' set-up time beside
// it and the decoder's share of their run time, batch counts, cache
// traffic, the plan time spent before the sweeps' first turns (building
// and addressing the points — what a warm -store run costs) and the
// engines the points ran on. before and after are the process's registry
// counters around the experiment: the matcher calls, their defects and
// the triggered lanes are this experiment's own, the memo entries what
// every experiment so far has left behind.
func printStats(st telemetry.Stats, before, after exp.RegistryStats) {
	rate := fmt.Sprintf("%.3g shots/s", st.ShotsPerSec)
	if len(st.Engines) > 0 {
		rates := make([]string, len(st.Engines))
		for i, e := range st.Engines {
			rates[i] = fmt.Sprintf("%s %.3g shots/s", e.Name, float64(e.Shots)/(float64(max(e.WallNS, 1))/1e9))
		}
		rate = strings.Join(rates, ", ")
	}
	fmt.Fprintf(os.Stderr,
		"radqec: %s: %d shots (%d errors) over %d points in %d batches; %s engine throughput; cache %d hits / %d misses\n",
		st.Experiment, st.Shots, st.Errors, st.PointsDone, st.Batches,
		rate, st.CacheHits, st.CacheMisses)
	if engine := st.PrepareNS + st.WallNS; engine > 0 {
		var decodeShare float64
		if st.WallNS > 0 {
			decodeShare = 100 * float64(st.DecodeNS) / float64(st.WallNS)
		}
		fmt.Fprintf(os.Stderr, "radqec: %s: engine time %v = set-up %v (%.1f%%) + run %v (decode %.1f%% of run); throughput counts run only\n",
			st.Experiment,
			time.Duration(engine).Round(time.Millisecond),
			time.Duration(st.PrepareNS).Round(time.Millisecond),
			100*float64(st.PrepareNS)/float64(engine),
			time.Duration(st.WallNS).Round(time.Millisecond),
			decodeShare)
	}
	if st.PlanNS > 0 {
		fmt.Fprintf(os.Stderr, "radqec: %s: plan time %v (%.1f%% of %v elapsed): points built and addressed before the first turn\n",
			st.Experiment, time.Duration(st.PlanNS).Round(time.Microsecond),
			100*float64(st.PlanNS)/float64(st.ElapsedNS), time.Duration(st.ElapsedNS).Round(time.Microsecond))
	}
	if lanes := after.Decoder.TriggeredLanes - before.Decoder.TriggeredLanes; lanes > 0 {
		calls := after.Decoder.MatcherCalls - before.Decoder.MatcherCalls
		var meanK float64
		if calls > 0 {
			meanK = float64(after.Decoder.MatchedDefects-before.Decoder.MatchedDefects) / float64(calls)
		}
		fmt.Fprintf(os.Stderr, "radqec: %s: decoder: %d matcher calls (mean k %.1f defects) for %d triggered lanes, %d memo entries in the process, %d answered by exact parity\n",
			st.Experiment, calls, meanK, lanes, after.Decoder.MemoEntries,
			after.Decoder.ExactParity-before.Decoder.ExactParity)
	}
	if st.Engine != "" {
		fmt.Fprintf(os.Stderr, "radqec: %s: engine %s\n", st.Experiment, st.Engine)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: radqec [flags] <experiment>\n\nexperiments:\n")
	exps := exp.Experiments()
	sort.Slice(exps, func(i, j int) bool { return exps[i].Name < exps[j].Name })
	for _, e := range exps {
		fmt.Fprintf(os.Stderr, "  %-18s %s\n", e.Name, e.Desc)
	}
	fmt.Fprintf(os.Stderr, "  %-18s %s\n\nflags:\n", "all", "run every experiment")
	flag.PrintDefaults()
}

// flushProfiles finalises any active profiling; flushOnce guards it so
// the normal defer, an error exit and the signal handler cannot run it
// twice (the handler races the main goroutine, hence sync.Once).
var (
	flushProfiles = func() {}
	flushGuard    sync.Once
)

func flushOnce() {
	flushGuard.Do(func() { flushProfiles() })
}

// resultStore is the -store cache when one is open; closeStoreOnce
// syncs and closes it exactly once across the normal exit path, fatal,
// and the signal handler.
var (
	resultStore *store.Store
	storeGuard  sync.Once
)

// interruptSignal holds the first signal's number (or -1 for a
// non-syscall signal) so the experiment loop can tell a graceful
// cancellation from an engine error and exit 128+signal.
var interruptSignal atomic.Int32

func closeStoreOnce() {
	storeGuard.Do(func() {
		if resultStore == nil {
			return
		}
		if err := resultStore.Close(); err != nil {
			slog.Error("radqec: store close failed", "error", err)
		}
	})
}

// dumpTrace writes the run's recorded spans, in start order, to the
// -trace-out (NDJSON) and -trace-chrome (Chrome trace-event JSON)
// files. Best-effort on the way out, like the pprof flush: errors are
// logged, never fatal.
func dumpTrace(rec *trace.Recorder, ndPath, chromePath string) {
	spans := rec.Spans()
	for _, f := range []struct {
		path   string
		chrome bool
	}{{ndPath, false}, {chromePath, true}} {
		if f.path == "" {
			continue
		}
		out, err := os.Create(f.path)
		if err == nil {
			err = trace.Write(out, spans, f.chrome)
			if cerr := out.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			slog.Error("radqec: trace dump failed", "error", err)
		}
	}
	slog.Info("radqec: trace written", "trace_id", rec.TraceID().String(), "spans", len(spans))
}

// writeHeapProfile snapshots the heap after a GC. Errors are reported
// but do not recurse into fatal: the profile is best-effort on the way
// out.
func writeHeapProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		slog.Error("radqec: heap profile failed", "error", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		slog.Error("radqec: heap profile failed", "error", err)
	}
}

func fatal(err error) {
	flushOnce()
	closeStoreOnce()
	slog.Error("radqec: fatal", "error", err)
	os.Exit(1)
}

// usageError reports a bad flag value and exits with the usage status.
func usageError(msg string) {
	fmt.Fprintf(os.Stderr, "radqec: %s\n", msg)
	os.Exit(2)
}
