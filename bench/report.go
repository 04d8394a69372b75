package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"
)

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOutput is the result object the driver reads off the last line of
// standard output: exactly these four keys.
type runOutput struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runRecord is a runOutput with what the report prints beside it.
type runRecord struct {
	runOutput
	Workload string `json:"workload"`
	Traced   bool   `json:"traced"`
	Seed     uint64 `json:"seed"`
	// Samples is how many measurements stand behind a metric where that
	// is more than one (ops behind op_p50_ms, spawns behind setup_s).
	Samples map[string]int `json:"samples,omitempty"`
	// OpQ1MS and OpQ3MS are the quartiles of the op latencies beside
	// op_p50_ms; no tail percentile is given where fewer than ten
	// samples would lie beyond it.
	OpQ1MS      float64    `json:"op_q1_ms,omitempty"`
	OpQ3MS      float64    `json:"op_q3_ms,omitempty"`
	WallSeconds float64    `json:"wall_s"`
	CanaryMS    [2]float64 `json:"canary_ms"`
	Noisy       bool       `json:"noisy,omitempty"`
	Failures    []string   `json:"failures,omitempty"`
}

func withUnits(specs []metricSpec, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		v, ok := values[s.Name]
		if !ok {
			return nil, fmt.Errorf("bench: no value for metric %s", s.Name)
		}
		out[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	return out, nil
}

// stamp identifies what a report was measured on.
type stamp struct {
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Seconds    int     `json:"seconds"`
	Runs       int     `json:"runs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	ChildProcs int     `json:"child_gomaxprocs"`
	BuildS     float64 `json:"build_s"`
	E2EWallS   float64 `json:"e2e_wall_s"`
	TraceWallS float64 `json:"traced_wall_s"`
	Started    string  `json:"started"`
}

func newStamp(seed uint64, seconds, runs int, buildS float64) stamp {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return stamp{
		Commit: commit, Seed: seed, Seconds: seconds, Runs: runs,
		GoVersion: runtime.Version(), CPUModel: cpuModel(), NProc: runtime.NumCPU(),
		ChildProcs: childProcs, BuildS: buildS, Started: time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return runtime.GOARCH
}

func (s stamp) print(w io.Writer) {
	fmt.Fprintf(w, "radqec bench: commit %s, seed %d, %d s x %d run(s) per workload, %s, %s, nproc %d, children GOMAXPROCS=%d -workers %d, build %.1f s\n",
		s.Commit, s.Seed, s.Seconds, s.Runs, s.GoVersion, s.CPUModel, s.NProc, s.ChildProcs, s.ChildProcs, s.BuildS)
}

// report is what `bench all` writes and `bench compare` reads.
type report struct {
	Stamp stamp       `json:"stamp"`
	Runs  []runRecord `json:"runs"`
}

// values collects one metric's value from every run of a workload.
func (r *report) values(workload, metric string, traced bool) []float64 {
	var out []float64
	for _, run := range r.Runs {
		if run.Workload == workload && run.Traced == traced {
			if m, ok := run.Metrics[metric]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

func (r *report) failed(workload string) (failed, attempted int) {
	for _, run := range r.Runs {
		if run.Workload == workload {
			failed += run.Failed
			attempted += run.Attempted
		}
	}
	return failed, attempted
}

// printRun prints one run's metrics by name, with unit, sample count
// and bound.
func printRun(w io.Writer, rec runRecord) {
	kind, specs := "end-to-end (tracing off)", endToEnd
	if rec.Traced {
		kind, specs = "per-layer (traced run)", perLayer
	}
	fmt.Fprintf(w, "\n== %s  %s  seed %d  %d/%d ops failed  correct=%v  %.1f s  canary %.1f/%.1f ms",
		rec.Workload, kind, rec.Seed, rec.Failed, rec.Attempted, rec.Correct, rec.WallSeconds, rec.CanaryMS[0], rec.CanaryMS[1])
	if rec.Noisy {
		fmt.Fprint(w, "  NOISY")
	}
	fmt.Fprintln(w)
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tvalue\tunit\tn\tbound\tnote")
	for _, s := range specs {
		n := 1
		if c, ok := rec.Samples[s.Name]; ok {
			n = c
		}
		bound, note := "-", s.Moves
		if !rec.Traced {
			bound = fmt.Sprintf("%.0f%% %s better", 100*s.Bound, s.Better)
		}
		if s.Name == "op_p50_ms" {
			note = fmt.Sprintf("quartiles %.4g / %.4g", rec.OpQ1MS, rec.OpQ3MS)
		}
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%d\t%s\t%s\n", s.Name, rec.Metrics[s.Name].Value, s.Unit, n, bound, note)
	}
	tw.Flush()
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "  failed: %s\n", f)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
