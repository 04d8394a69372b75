// Command radqecd is the radqec campaign daemon: it serves every
// experiment of the registry over HTTP, streams sweep points back as
// NDJSON while the shared worker pool produces them, and persists each
// point in a content-addressed on-disk store so identical
// re-submissions — from any client, or from the radqec CLI pointed at
// the same -store directory — replay from disk without re-running the
// engines.
//
// Usage:
//
//	radqecd [flags]
//
// Flags:
//
//	-addr HOST:PORT  listen address (default :8423)
//	-store DIR       result store directory (default radqec-store;
//	                 "" disables persistence)
//	-workers N       shared sweep worker pool size (default GOMAXPROCS);
//	                 all concurrent campaigns are multiplexed fairly
//	                 over this one budget
//	-log-format text|json  structured-log rendering (default text)
//	-log-level L     minimum log level: debug, info, warn, or error
//	                 (default info)
//	-pprof           mount net/http/pprof under /debug/pprof/ (default
//	                 off; the profiles expose heap contents)
//
// Endpoints are documented in package server (full API in docs/api.md).
// SIGINT/SIGTERM drain in-flight campaigns, flush the store and exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"radqec/internal/logsetup"
	"radqec/internal/server"
	"radqec/internal/store"
)

func main() {
	addr := flag.String("addr", ":8423", "listen address")
	storeDir := flag.String("store", "radqec-store", "result store directory (empty disables persistence)")
	workers := flag.Int("workers", 0, "shared sweep worker pool size (0 = GOMAXPROCS)")
	logFormat := flag.String("log-format", "text", "structured-log rendering: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, or error")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "radqecd: unexpected arguments %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}
	if *workers < 0 {
		usageError(fmt.Sprintf("-workers %d out of range (want >= 0; 0 = GOMAXPROCS)", *workers))
	}
	log, err := logsetup.Init(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		usageError(err.Error())
	}
	var st *store.Store
	if *storeDir != "" {
		var err error
		start := time.Now()
		st, err = store.Open(*storeDir, store.Options{})
		if err != nil {
			fatal(err)
		}
		replay := time.Since(start)
		stats := st.Stats()
		log.Info("radqecd: store opened",
			"dir", *storeDir,
			"commits", stats.Commits,
			"checkpoints", stats.Checkpoints,
			"segment_bytes", stats.SegmentBytes,
			"quarantined", stats.Quarantined,
			"replay_ms", float64(replay.Microseconds())/1e3)
	} else {
		log.Warn("radqecd: running without a store; every campaign recomputes")
	}

	srv := server.New(server.Config{
		Store:   st,
		Workers: *workers,
		Logger:  log,
		Pprof:   *pprofOn,
	})
	// No blanket ReadTimeout/WriteTimeout: campaign streams legitimately
	// run for minutes and per-write deadlines already guard them (see
	// server.streamWriteTimeout). The header and idle limits below are
	// what keep half-open (slowloris-style) or abandoned connections from
	// pinning the daemon.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 20,
	}

	// SIGINT/SIGTERM: stop accepting, drain in-flight campaigns (their
	// points keep checkpointing into the store), then close the store,
	// which may compact it, so the directory is immediately reusable. A
	// drain can take as long as the longest queued campaign, so a second
	// signal is the escape hatch: sync the store and exit immediately
	// instead of forcing the operator to SIGKILL past the flush path.
	done := make(chan error, 1)
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		log.Info("radqecd: draining (signal again to exit now)", "signal", sig.String())
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			done <- httpSrv.Shutdown(ctx)
		}()
		sig = <-sigc
		log.Warn("radqecd: exiting now", "signal", sig.String())
		if st != nil {
			// Sync, not Close: a close-time rewrite that has not
			// started is skipped. Sync takes the store's lock, so one
			// already running finishes first, as do in-flight appends.
			if err := st.Sync(); err != nil {
				log.Error("radqecd: store sync failed", "error", err)
			}
		}
		if n, ok := sig.(syscall.Signal); ok {
			os.Exit(128 + int(n))
		}
		os.Exit(1)
	}()

	log.Info("radqecd: listening", "addr", *addr, "workers", *workers, "pprof", *pprofOn)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		if st != nil {
			st.Close()
		}
		fatal(err)
	}
	shutdownErr := <-done
	if shutdownErr == nil {
		// Clean drain: every handler returned, so the pool is idle and
		// can be released. After a drain timeout campaigns are still
		// running on the pool — closing it would panic their next sweep
		// — so the pool is left to die with the process instead.
		srv.Close()
	} else {
		log.Error("radqecd: drain incomplete; exiting with campaigns in flight", "error", shutdownErr)
	}
	if st != nil {
		before, start := st.Stats(), time.Now()
		err := st.Close()
		log.Info("radqecd: store closed",
			"segment_bytes_before", before.SegmentBytes,
			"segment_bytes_after", st.Stats().SegmentBytes,
			"close_ms", float64(time.Since(start).Microseconds())/1e3)
		if err != nil {
			fatal(err)
		}
	}
	if shutdownErr != nil {
		os.Exit(1)
	}
}

// fatal reports an unrecoverable startup or shutdown error. It runs
// only after logsetup.Init installed the default logger, so the record
// lands in the operator's chosen format.
func fatal(err error) {
	slog.Error("radqecd: fatal", "error", err)
	os.Exit(1)
}

// usageError reports a bad flag value and exits with the usage status.
func usageError(msg string) {
	fmt.Fprintf(os.Stderr, "radqecd: %s\n", msg)
	os.Exit(2)
}
