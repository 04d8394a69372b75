package main

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// stream builds a small campaign stream: n point records and a table.
func stream(n int, cell string, elapsedMS int, cached bool) []string {
	var lines []string
	for i := 0; i < n; i++ {
		rec := fmt.Sprintf(`{"type":"point","experiment":"fig5","key":"fig5/p%d","shots":2000,"errors":%d,"rate":0.0%d5,"batches":8,"converged":true`, i, 10+i, i)
		if cached {
			rec += `,"cached":true`
		}
		lines = append(lines, rec+"}")
	}
	return append(lines, fmt.Sprintf(
		`{"type":"table","experiment":"fig5","title":"Figure 5","header":["code","logical_error"],"rows":[["rep-(5,1)","%s"],["xxzz-(3,3)","4.10%%"]],"notes":["n"],"elapsed_ms":%d}`,
		cell, elapsedMS))
}

func mustDigest(t *testing.T, lines []string) opDigest {
	t.Helper()
	d, err := digestStream([]byte(strings.Join(lines, "\n") + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDigestStripsTimingAndProvenance(t *testing.T) {
	cold := mustDigest(t, stream(4, "1.25%", 311, false))
	warm := stream(4, "1.25%", 9, true)
	warm[0], warm[2] = warm[2], warm[0] // completion order is scheduling, not content
	if got := mustDigest(t, warm); got != cold {
		t.Errorf("a cached replay in another order digests differently:\n cold %+v\n warm %+v", cold, got)
	}
	if cold.NPoint != 4 || cold.Shots != 8000 {
		t.Errorf("digest counted %d points, %d shots; want 4, 8000", cold.NPoint, cold.Shots)
	}
}

// The two tamper cases the checker exists for: each must count as a
// failed op against the request's reference.
func TestTamperedStreamsFail(t *testing.T) {
	good := stream(4, "1.25%", 311, false)
	dropped := append(append([]string(nil), good[:1]...), good[2:]...)
	rate := append([]string(nil), good...)
	rate[1] = strings.Replace(rate[1], `"errors":11`, `"errors":12`, 1)
	for name, lines := range map[string][]string{
		"tampered row":         stream(4, "1.26%", 311, false),
		"dropped point record": dropped,
		"tampered point":       rate,
	} {
		refs := references{}
		if err := refs.check("fig5/seed1", mustDigest(t, good)); err != nil {
			t.Fatalf("first op must install the reference: %v", err)
		}
		if err := refs.check("fig5/seed1", mustDigest(t, good)); err != nil {
			t.Errorf("identical op failed: %v", err)
		}
		if err := refs.check("fig5/seed1", mustDigest(t, lines)); err == nil {
			t.Errorf("%s passed the checker", name)
		}
		if err := refs.check("fig5/seed2", mustDigest(t, lines)); err != nil {
			t.Errorf("%s: another request has its own reference: %v", name, err)
		}
	}
}

func TestBrokenStreamsFail(t *testing.T) {
	good := stream(3, "1.25%", 1, false)
	for name, lines := range map[string][]string{
		"no table record": good[:3],
		"error record":    append(append([]string(nil), good[:3]...), `{"type":"error","error":"cancelled","cancelled":true}`),
		"two tables":      append(append([]string(nil), good...), good[3]),
		"not JSON":        {"radqec: fatal"},
		"unknown type":    {`{"type":"signal"}`},
	} {
		if _, err := digestStream([]byte(strings.Join(lines, "\n"))); err == nil {
			t.Errorf("%s: digested without error", name)
		}
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // 1..200, unsorted
	}
	p95, err := tailPercentile(xs, 95)
	if err != nil || p95 != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190 (ten samples beyond)", p95, err)
	}
	if _, err := tailPercentile(xs[:199], 95); err == nil {
		t.Error("p95 of 199 samples has nine beyond it and was not refused")
	}
	if _, err := tailPercentile(xs[:28], 75); err == nil {
		t.Error("p75 of 28 samples (a CLI workload's op count) was not refused")
	}
	if _, err := tailPercentile(xs, 50); err == nil {
		t.Error("the median is not a tail percentile")
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4),
// which is what the driver computes run-to-run spread with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{3, 1, 2}, 1, 3},
	} {
		q1, q3, ok := quartiles(c.xs)
		if !ok || q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v", c.xs, q1, q3, ok, c.q1, c.q3)
		}
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample")
	}
}

func TestJudge(t *testing.T) {
	lat := metricSpec{Name: "op_p50_ms", Better: lower, Bound: 0.10}
	thr := metricSpec{Name: "shots_per_s", Better: higher, Bound: 0.10}
	tight := func(m float64) side { return side{N: 10, Median: m, Q1: 0.99 * m, Q3: 1.01 * m} }
	wide := func(m float64) side { return side{N: 10, Median: m, Q1: 0.9 * m, Q3: 1.1 * m} }
	for _, c := range []struct {
		spec metricSpec
		a, b side
		want string
	}{
		{lat, tight(100), tight(105), verdictOK},
		{lat, tight(100), tight(80), verdictOK},
		{lat, tight(100), tight(112), verdictRegression},
		{thr, tight(100), tight(112), verdictOK},
		{thr, tight(100), tight(88), verdictRegression},
		{lat, tight(100), wide(112), verdictUnresolved},
		{lat, wide(100), tight(101), verdictUnresolved},
	} {
		if _, got := judge(c.spec, c.a, c.b); got != c.want {
			t.Errorf("%s: A %.0f B %.0f (IQR %.0f%%/%.0f%%): %s, want %s", c.spec.Name,
				c.a.Median, c.b.Median, 100*c.a.spread(), 100*c.b.spread(), got, c.want)
		}
	}
}

// The ledger's point grids must be the figures' own: the traced run
// fails an op when they disagree with what exp.Run streams, and this
// pins the counts the README quotes.
func TestGridsMatchFigures(t *testing.T) {
	for name, want := range map[string]int{"fig6-dense": 436, "memory-deep": 34, "fig5-paper": 160, "fig8-points": 2470, "daemon-cold": 160} {
		w, ok := findWorkload(name)
		if !ok {
			t.Fatalf("no workload %s", name)
		}
		g, err := buildGrid(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(g.points) != want {
			t.Errorf("%s: grid has %d points, want %d", name, len(g.points), want)
		}
		idx, scale := g.sampled()
		if len(idx) > maxProbePoints || math.Abs(float64(len(idx))*scale-float64(want)) > 1e-6 {
			t.Errorf("%s: sampled %d points at scale %g of %d", name, len(idx), scale, want)
		}
	}
}

// The hard half of the oracle probe must hold at this commit.
func TestOracleRepetitionAgrees(t *testing.T) {
	pts, err := oracleRepetition()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		t.Logf("%s: batch %.4f tableau %.4f", p.Name, p.Batch, p.Tableau)
	}
	far := oraclePoint{BatchK: 400, TableK: 700}
	bLo, bHi := wilson(far.BatchK, oracleShots, oracleZ)
	tLo, tHi := wilson(far.TableK, oracleShots, oracleZ)
	if !(bLo > tHi || tLo > bHi) {
		t.Errorf("400 vs 700 errors of %d: intervals [%.3f, %.3f] and [%.3f, %.3f] overlap", oracleShots, bLo, bHi, tLo, tHi)
	}
}
