package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"radqec/internal/stats"
)

// repeatBudget bounds how long the traced run repeats one in-process
// or CLI campaign to take a median; long campaigns run once.
const repeatBudget = 1500 * time.Millisecond

// repeat calls f until repeatBudget of its reported time is spent (at
// least once, at most five times) and returns each call's reported
// time in milliseconds.
func repeat(f func() (time.Duration, error)) ([]float64, error) {
	var (
		out   []float64
		spent time.Duration
	)
	for len(out) == 0 || (len(out) < 5 && spent < repeatBudget) {
		d, err := f()
		if err != nil {
			return nil, err
		}
		out = append(out, ms(d))
		spent += d
	}
	return out, nil
}

// tracedResult is one traced run of one workload: every per-layer
// metric, plus the ops it checked along the way.
type tracedResult struct {
	Metrics           map[string]float64
	Attempted, Failed int
	Failures          []string
	CanaryMS          [2]float64 // the host canary before and after
	Noisy             bool       // it moved by more than 10% across the run
}

// traced makes the per-layer run of a workload: the point-level ledger
// on one worker, the whole campaign in process (plain, on one worker,
// and with the program's own tracing sampled), a few CLI ops for the
// command's overhead, the fixed-input probes, and the live-daemon
// probe. Spans are recorded by the harness around the public calls
// into each layer; the end-to-end metrics never come from this run.
func (h *harness) traced(w workload, seed uint64) (*tracedResult, error) {
	runtime.GOMAXPROCS(childProcs)
	res := &tracedResult{Metrics: map[string]float64{}}
	spans := newSpanLog()
	put := func(m map[string]float64) {
		for k, v := range m {
			res.Metrics[k] = v
		}
	}
	fail := func(format string, args ...any) {
		res.Failed++
		res.Failures = append(res.Failures, fmt.Sprintf(format, args...))
	}
	canaryBefore := canary()
	campaign := campaignSeed(seed, 0)
	refs := references{}
	request := w.request(campaign)

	led, err := timePoints(w, campaign, spans)
	if err != nil {
		return nil, err
	}
	put(led.metrics())

	// The whole campaign in process, same configuration as the CLI op.
	var first expRun
	inProcess := func(what string, workers int, sampled bool) func() (time.Duration, error) {
		return func() (time.Duration, error) {
			r, err := runExp(w, expConfig(w, campaign, workers), sampled, spans)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", what, err)
			}
			if first.Wall == 0 {
				first = r
			}
			res.Attempted++
			if err := refs.check(request, r.Digest); err != nil {
				fail("%s: %v", what, err)
			}
			return r.Wall, nil
		}
	}
	// Plain and sampled runs take turns, so drift in the host's speed
	// does not read as tracing overhead.
	var sampledMS []float64
	plain, sampled := inProcess("exp.Run", childProcs, false), inProcess("exp.Run sampled", childProcs, true)
	baseMS, err := repeat(func() (time.Duration, error) {
		d, err := sampled()
		if err != nil {
			return 0, err
		}
		sampledMS = append(sampledMS, ms(d))
		return plain()
	})
	if err != nil {
		return nil, err
	}
	oneWorkerMS, err := repeat(inProcess("exp.Run on one worker", 1, false))
	if err != nil {
		return nil, err
	}
	runMS := stats.Median(baseMS)
	shots := float64(first.Shots)
	put(map[string]float64{
		"exp.run_ms":                   runMS,
		"exp.shots_per_s":              ratio(shots, runMS/1e3),
		"exp.alloc_bytes_per_shot":     ratio(float64(first.AllocBytes), shots),
		"exp.allocs_per_shot":          ratio(float64(first.Mallocs), shots),
		"exp.gc_pause_ms":              ms(first.GCPause),
		"exp.points":                   float64(first.Points),
		"exp.shots":                    shots,
		"exp.ledger_residual_share":    1 - ratio(led.predictedMS(childProcs), runMS),
		"sweep.speedup_2w":             ratio(stats.Median(oneWorkerMS), runMS),
		"trace.sampled_overhead_share": ratio(stats.Median(sampledMS)-runMS, runMS),
	})
	if int(first.Points) != led.points {
		fail("ledger grid has %d points, %s streamed %d", led.points, w.Experiment, first.Points)
	}

	// The same campaign through the built CLI, for what the command
	// adds around exp.Run.
	var firstRecordMS []float64
	cliMS, err := repeat(func() (time.Duration, error) {
		op := h.runCLI(cliArgs(w, campaign))
		res.Attempted++
		if op.Err != nil {
			fail("radqec: %v", op.Err)
		} else if err := refs.check(request, op.Digest); err != nil {
			fail("CLI vs in-process: %v", err)
		}
		firstRecordMS = append(firstRecordMS, ms(op.FirstRecord))
		return op.Wall, nil
	})
	if err != nil {
		return nil, err
	}
	put(map[string]float64{
		"cmd.overhead_ms":     stats.Median(cliMS) - runMS,
		"cmd.first_record_ms": stats.Median(firstRecordMS),
		"cmd.build_s":         h.buildS,
	})

	m, err := matchingProbe(spans)
	if err != nil {
		return nil, err
	}
	put(m)
	for _, probe := range []func(string, *spanLog) (map[string]float64, error){storeProbe, sweepProbe} {
		dir, err := h.tempDir("probe")
		if err != nil {
			return nil, err
		}
		m, err := probe(dir, spans)
		if err != nil {
			return nil, err
		}
		put(m)
	}
	put(fabricProbe())

	svc, err := h.serviceProbe(w, seed, spans)
	if err != nil {
		return nil, err
	}
	put(svc.Metrics)
	res.Attempted += svc.Campaigns
	for _, f := range svc.Failures {
		fail("daemon: %s", f)
	}

	res.CanaryMS = [2]float64{ms(canaryBefore), ms(canary())}
	res.Noisy = math.Abs(res.CanaryMS[1]-res.CanaryMS[0]) > 0.10*res.CanaryMS[0]
	put(map[string]float64{
		"host.canary_ms":  (res.CanaryMS[0] + res.CanaryMS[1]) / 2,
		"host.nproc":      float64(runtime.NumCPU()),
		"host.gomaxprocs": float64(runtime.GOMAXPROCS(0)),
	})
	for _, spec := range perLayer {
		if _, ok := res.Metrics[spec.Name]; !ok {
			return nil, fmt.Errorf("bench: traced run produced no value for %s", spec.Name)
		}
	}
	if err := spans.writeNDJSON(filepath.Join(buildDir, "spans-"+w.Name+".ndjson")); err != nil {
		return nil, err
	}
	return res, nil
}
