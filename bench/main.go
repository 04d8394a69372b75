// Command bench is radqec's layered benchmark: named workloads run
// against the built radqec and radqecd binaries with tracing off for
// the end-to-end metrics, every op's output checked, and a separate
// traced run that records spans around the public calls into each
// module for the per-layer ledger. See README.md in this directory.
//
// Usage (from the repository root):
//
//	bench -workload NAME -seed N -seconds S -trace 0|1   one run; last stdout line is the result object
//	bench all [-seed N] [-seconds S] [-runs R] [-out F]  every workload, both kinds of run, printed and written as JSON
//	bench compare [-same-tree] A.json B.json             per (metric, workload): ok / regression / unresolved
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"syscall"
	"time"
)

func main() {
	args := os.Args[1:]
	if len(args) > 0 {
		switch args[0] {
		case "all":
			os.Exit(cmdAll(args[1:]))
		case "compare":
			os.Exit(cmdCompare(args[1:]))
		}
	}
	os.Exit(cmdRun(args))
}

// start builds the binaries and arranges for children and scratch files
// to be cleaned up on any way out, signals included.
func start() (*harness, error) {
	h, err := newHarness()
	if err != nil {
		return nil, err
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		h.close()
		os.Exit(130)
	}()
	return h, nil
}

// measure makes one run of one workload: end-to-end with tracing off,
// or the traced per-layer run.
func (h *harness) measure(w workload, seed uint64, seconds int, traced bool) (runRecord, error) {
	rec := runRecord{Workload: w.Name, Traced: traced, Seed: seed}
	begin := time.Now()
	if traced {
		res, err := h.traced(w, seed)
		if err != nil {
			return rec, err
		}
		rec.Attempted, rec.Failed, rec.Failures, rec.Noisy = res.Attempted, res.Failed, res.Failures, res.Noisy
		rec.Correct = res.Failed == 0
		rec.CanaryMS = res.CanaryMS
		rec.Metrics, err = withUnits(perLayer, res.Metrics)
		rec.WallSeconds = time.Since(begin).Seconds()
		return rec, err
	}

	rec.CanaryMS[0] = ms(canary())
	var res *e2eResult
	if w.daemon() {
		var err error
		if res, err = h.e2eDaemon(w, seed, time.Duration(seconds)*time.Second); err != nil {
			return rec, err
		}
	} else {
		res = h.e2eCLI(w, seed, time.Duration(seconds)*time.Second)
	}
	rec.CanaryMS[1] = ms(canary())
	rec.Noisy = math.Abs(rec.CanaryMS[1]-rec.CanaryMS[0]) > 0.10*rec.CanaryMS[0]

	// The oracle probe runs after the timed phase, in this process.
	rec.Attempted, rec.Failed, rec.Failures = res.Attempted, res.Failed, res.Failures
	_, oracleErr := oracleRepetition()
	gap, err := oracleXXZZGap()
	if err != nil {
		return rec, err
	}
	if oracleErr != nil {
		rec.Failures = append(rec.Failures, oracleErr.Error())
	}
	values := res.metrics(gap)
	rec.Correct = res.Failed == 0 && oracleErr == nil
	for _, s := range endToEnd {
		if v := values[s.Name]; !(v > 0) {
			// Every end-to-end metric is a positive quantity; a zero
			// means a child reported no rusage or no op passed.
			rec.Correct = false
			rec.Failures = append(rec.Failures, fmt.Sprintf("metric %s read %v", s.Name, v))
		}
	}
	rec.Samples = map[string]int{"op_p50_ms": len(res.OpMS), "setup_s": len(res.SetupS)}
	rec.OpQ1MS, rec.OpQ3MS, _ = quartiles(res.OpMS)
	rec.Metrics, err = withUnits(endToEnd, values)
	rec.WallSeconds = time.Since(begin).Seconds()
	return rec, err
}

// cmdRun is the driver's entry: one workload, one kind of run, the
// result object as the last line of standard output. The readable
// table goes to standard error.
func cmdRun(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	name := fs.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := fs.Uint64("seed", 1, "seed the campaign seeds and the daemon schedule derive from")
	seconds := fs.Int("seconds", runSeconds, "how long the end-to-end run measures")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
	fs.Parse(args)
	w, ok := findWorkload(*name)
	if !ok || fs.NArg() != 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "bench: want -workload NAME -seed N -seconds S -trace 0|1; workloads:\n")
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", w.Name, w.Why)
		}
		return 2
	}
	h, err := start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer h.close()
	rec, err := h.measure(w, *seed, *seconds, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	newStamp(*seed, *seconds, 1, h.buildS).print(os.Stderr)
	printRun(os.Stderr, rec)
	line, err := json.Marshal(rec.runOutput)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// cmdAll runs every workload, end to end and traced, -runs times each
// on consecutive seeds, prints every metric by name and writes the
// same as JSON.
func cmdAll(args []string) int {
	fs := flag.NewFlagSet("bench all", flag.ExitOnError)
	seed := fs.Uint64("seed", 1, "first seed; run i of a workload uses seed+i")
	seconds := fs.Int("seconds", runSeconds, "how long each end-to-end run measures")
	runs := fs.Int("runs", 1, "end-to-end runs per workload (compare needs several to see run-to-run spread)")
	out := fs.String("out", "", "write the report as JSON to this file")
	fs.Parse(args)
	if fs.NArg() != 0 || *seconds < 1 || *runs < 1 {
		fmt.Fprintln(os.Stderr, "usage: bench all [-seed N] [-seconds S] [-runs R] [-out FILE]")
		return 2
	}
	h, err := start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer h.close()
	rep := report{Stamp: newStamp(*seed, *seconds, *runs, h.buildS)}
	rep.Stamp.print(os.Stdout)
	correct := true
	for _, w := range workloads {
		for i := 0; i <= *runs; i++ {
			// Runs 0..runs-1 are end to end; the last is the traced one.
			traced := i == *runs
			rec, err := h.measure(w, *seed+uint64(i%*runs), *seconds, traced)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			printRun(os.Stdout, rec)
			if traced {
				rep.Stamp.TraceWallS += rec.WallSeconds
			} else {
				rep.Stamp.E2EWallS += rec.WallSeconds
			}
			correct = correct && rec.Correct
			rep.Runs = append(rep.Runs, rec)
		}
	}
	fmt.Printf("\nend-to-end runs %.0f s, traced runs %.0f s, correct=%v\n", rep.Stamp.E2EWallS, rep.Stamp.TraceWallS, correct)
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if !correct {
		return 1
	}
	return 0
}
