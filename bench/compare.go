package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"radqec/internal/stats"
)

// Verdicts of one (metric, workload) row.
const (
	verdictOK         = "ok"
	verdictRegression = "regression"
	// verdictUnresolved: the run-to-run spread of either side is wider
	// than the bound, so the medians cannot tell a change that size from
	// noise. Reported as unresolved, never as unchanged.
	verdictUnresolved = "unresolved"
)

// side is one report's view of a metric on a workload.
type side struct {
	N              int
	Median, Q1, Q3 float64
}

func summarize(xs []float64) side {
	s := side{N: len(xs), Median: stats.Median(xs)}
	s.Q1, s.Q3, _ = quartiles(xs)
	return s
}

// spread is the interquartile range as a share of the median.
func (s side) spread() float64 {
	if s.N < 2 || s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// judge compares B against A for one end-to-end metric: how much worse
// B's median is, as a share of A's, against the metric's bound.
func judge(spec metricSpec, a, b side) (worse float64, verdict string) {
	if a.Median != 0 {
		worse = (b.Median - a.Median) / a.Median
		if spec.Better == higher {
			worse = -worse
		}
	}
	switch {
	case a.spread() > spec.Bound || b.spread() > spec.Bound:
		return worse, verdictUnresolved
	case worse > spec.Bound:
		return worse, verdictRegression
	}
	return worse, verdictOK
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compare prints one row per (metric, workload) and returns whether B
// regressed: any end-to-end metric worse than its bound, more failed
// ops than A, or — when sameTree is set, for two reports of one tree —
// an exactly-repeatable count that differs.
func compare(w io.Writer, a, b *report, sameTree bool) (regressed bool) {
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3] n\tB median [q1, q3] n\tworse\tbound\tverdict")
	row := func(wl string, s metricSpec, sa, sb side, worse, bound, verdict string) {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g [%.4g, %.4g] %d\t%.6g [%.4g, %.4g] %d\t%s\t%s\t%s\n",
			wl, s.Name, s.Unit, sa.Median, sa.Q1, sa.Q3, sa.N, sb.Median, sb.Q1, sb.Q3, sb.N, worse, bound, verdict)
	}
	for _, wl := range workloads {
		for _, s := range endToEnd {
			sa, sb := summarize(a.values(wl.Name, s.Name, false)), summarize(b.values(wl.Name, s.Name, false))
			if sa.N == 0 || sb.N == 0 {
				continue
			}
			worse, verdict := judge(s, sa, sb)
			regressed = regressed || verdict == verdictRegression
			row(wl.Name, s, sa, sb, fmt.Sprintf("%+.1f%%", 100*worse), fmt.Sprintf("%.0f%%", 100*s.Bound), verdict)
		}
		fa, na := a.failed(wl.Name)
		fb, nb := b.failed(wl.Name)
		verdict := verdictOK
		if fb > fa {
			verdict, regressed = verdictRegression, true
		}
		fmt.Fprintf(tw, "%s\tfailed_share\tops\t%d/%d\t%d/%d\t\t0\t%s\n", wl.Name, fa, na, fb, nb, verdict)
		for _, s := range perLayer {
			sa, sb := summarize(a.values(wl.Name, s.Name, true)), summarize(b.values(wl.Name, s.Name, true))
			if sa.N == 0 || sb.N == 0 {
				continue
			}
			verdict := "-"
			if s.Exact {
				verdict = "equal"
				if sa.Median != sb.Median {
					verdict = "differs"
					regressed = regressed || sameTree
				}
			}
			row(wl.Name, s, sa, sb, "", "-", verdict)
		}
	}
	tw.Flush()
	return regressed
}

func cmdCompare(args []string) int {
	fs := flag.NewFlagSet("bench compare", flag.ExitOnError)
	sameTree := fs.Bool("same-tree", false, "both reports measured one tree with one seed: an exact count that differs is a regression")
	fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-same-tree] A.json B.json")
		return 2
	}
	a, err := readReport(fs.Arg(0))
	if err == nil {
		var b *report
		if b, err = readReport(fs.Arg(1)); err == nil {
			a.Stamp.print(os.Stdout)
			b.Stamp.print(os.Stdout)
			if compare(os.Stdout, a, b, *sameTree) {
				return 1
			}
			return 0
		}
	}
	fmt.Fprintln(os.Stderr, "bench compare:", err)
	return 2
}
