package exp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"radqec/internal/arch"
	"radqec/internal/core"
	"radqec/internal/frame"
	"radqec/internal/inject"
	"radqec/internal/noise"
	"radqec/internal/qec"
	"radqec/internal/rng"
	"radqec/internal/stats"
	"radqec/internal/sweep"
)

// quickCfg keeps campaign sizes small enough for the test suite while
// leaving every qualitative shape resolvable.
var quickCfg = Config{Shots: 200, Seed: 12345}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.Defaults()
	if c.Shots != 2000 || c.P != 0.01 || c.NS != 10 {
		t.Fatalf("defaults = %+v", c)
	}
	// The empty engine and decoder names mean the batched engine and
	// MWPM; Defaults is the one place that says so.
	if c.Engine != EngineBatch || c.Decoder != DecoderMWPM {
		t.Fatalf("default engine %q, decoder %q", c.Engine, c.Decoder)
	}
	c = Config{Shots: 5, P: 0.3, NS: 4}.Defaults()
	if c.Shots != 5 || c.P != 0.3 || c.NS != 4 {
		t.Fatal("explicit values overridden")
	}
	c = Config{Engine: EngineTableau}.Defaults()
	if c.Engine != EngineTableau {
		t.Fatalf("explicit engine overridden: %q", c.Engine)
	}
	// Only an exact zero is unset: a negative value stays as given, for
	// Validate to name instead of a default silently replacing it.
	c = Config{Shots: -1, P: -0.5, NS: -1, Rounds: -1}.Defaults()
	if c.Shots != -1 || c.P != -0.5 || c.NS != -1 || c.Rounds != -1 {
		t.Fatalf("Defaults replaced negative values: %+v", c)
	}
	if err := (Config{}).Defaults().Validate(); err != nil {
		t.Fatalf("the default config is outside the domain: %v", err)
	}
}

// TestConfigValidateBounds: every field of the campaign domain one step
// below its low end, at its low end, at its high end and one step past
// it (NaN too for the floats), each on an otherwise default config. A
// rejected value's message starts with the field's name.
func TestConfigValidateBounds(t *testing.T) {
	type row struct {
		field string
		set   func(*Config)
		ok    bool
	}
	tiny, nan := math.SmallestNonzeroFloat64, math.NaN()
	rows := []row{
		{"shots", func(c *Config) { c.Shots = 0 }, false},
		{"shots", func(c *Config) { c.Shots = 1 }, true},
		{"shots", func(c *Config) { c.Shots = MaxShots }, true},
		{"shots", func(c *Config) { c.Shots = MaxShots + 1 }, false},
		{"shots", func(c *Config) { c.Shots = math.MaxInt }, false},
		{"p", func(c *Config) { c.P = 0 }, false},
		{"p", func(c *Config) { c.P = tiny }, true},
		{"p", func(c *Config) { c.P = 1 }, true},
		{"p", func(c *Config) { c.P = math.Nextafter(1, 2) }, false},
		{"p", func(c *Config) { c.P = nan }, false},
		{"ns", func(c *Config) { c.NS = 0 }, false},
		{"ns", func(c *Config) { c.NS = 1 }, true},
		{"ns", func(c *Config) { c.NS = MaxNS }, true},
		{"ns", func(c *Config) { c.NS = MaxNS + 1 }, false},
		{"rounds", func(c *Config) { c.Rounds = 1 }, false},
		{"rounds", func(c *Config) { c.Rounds = 2 }, true},
		{"rounds", func(c *Config) { c.Rounds = MaxRounds }, true},
		{"rounds", func(c *Config) { c.Rounds = MaxRounds + 1 }, false},
		{"workers", func(c *Config) { c.Workers = -1 }, false},
		{"workers", func(c *Config) { c.Workers = 0 }, true},
		{"workers", func(c *Config) { c.Workers = math.MaxInt }, true},
		{"ci", func(c *Config) { c.CI = -tiny }, false},
		{"ci", func(c *Config) { c.CI = 0 }, true},
		{"ci", func(c *Config) { c.CI = math.Nextafter(0.5, 0) }, true},
		{"ci", func(c *Config) { c.CI = 0.5 }, false},
		{"ci", func(c *Config) { c.CI = nan }, false},
		{"maxshots", func(c *Config) { c.MaxShots = -1 }, false},
		{"maxshots", func(c *Config) { c.MaxShots = 0 }, true},
		{"maxshots", func(c *Config) { c.MaxShots = MaxShots }, true},
		{"maxshots", func(c *Config) { c.MaxShots = MaxShots + 1 }, false},
		{"maxshots", func(c *Config) { c.MaxShots = math.MaxInt }, false},
		// Without maxshots, ci's worst-case count is the budget: about
		// 1.07e9 shots at 3e-5, 1.14e9 at 2.9e-5.
		{"ci", func(c *Config) { c.CI = 3e-5 }, true},
		{"ci", func(c *Config) { c.CI = 2.9e-5 }, false},
		{"ci", func(c *Config) { c.CI = tiny }, false},
		{"ci", func(c *Config) { c.CI, c.MaxShots = tiny, MaxShots }, true},
	}
	for _, name := range []string{"", EngineTableau, EngineBatch, "frame", "auto"} {
		rows = append(rows, row{"engine", func(c *Config) { c.Engine = name }, name == "" || slices.Contains(Engines(), name)})
	}
	// MWPM is the one decoder: union-find and greedy are ablation
	// columns, not campaign settings.
	for _, name := range []string{"", DecoderMWPM, "uf", "greedy"} {
		rows = append(rows, row{"decoder", func(c *Config) { c.Decoder = name }, name == "" || name == DecoderMWPM})
	}
	for _, r := range rows {
		c := Config{}.Defaults()
		r.set(&c)
		err := c.Validate()
		switch {
		case r.ok && err != nil:
			t.Errorf("%s: %+v rejected: %v", r.field, c, err)
		case !r.ok && err == nil:
			t.Errorf("%s: %+v accepted", r.field, c)
		case !r.ok && !strings.HasPrefix(err.Error(), r.field+" "):
			t.Errorf("%s: message %q does not start with the field", r.field, err)
		}
	}
}

// TestRunValidatesConfig: an experiment run on a config outside the
// domain returns Validate's error before anything is built — never the
// noise layer's panic on a rate above one.
func TestRunValidatesConfig(t *testing.T) {
	e, _ := Find("fig5")
	if _, err := e.Run(Config{P: 2}); err == nil || !strings.HasPrefix(err.Error(), "p ") {
		t.Fatalf("fig5 at p=2: err %v, want an error naming p", err)
	}
}

// TestCancelStopsEveryExperiment: every experiment with a sweep stops
// at the batch boundary after its Context is cancelled and reports the
// cancellation, wherever its shots run — the logical layer's included.
// fig3 and fig4 are analytic: they run no point and finish.
func TestCancelStopsEveryExperiment(t *testing.T) {
	for _, e := range Experiments() {
		t.Run(e.Name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			points := 0
			cfg := Config{Shots: 512, Seed: 1, Workers: 1, Context: ctx}
			cfg.OnPoint = func(sweep.Result) {
				if points++; points == 3 {
					cancel()
				}
			}
			tab, err := e.Run(cfg)
			if e.Name == "fig3" || e.Name == "fig4" {
				if err != nil || points != 0 {
					t.Fatalf("analytic figure: %d points, err %v", points, err)
				}
				return
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled at the third of %d completed points: table %v, err %v, want context.Canceled", points, tab != nil, err)
			}
		})
	}
}

func TestTableWriteText(t *testing.T) {
	tab := &Table{
		Title:  "demo",
		Header: []string{"a", "bb"},
		Notes:  []string{"hello"},
	}
	tab.Add("1", "2")
	var buf bytes.Buffer
	tab.WriteText(&buf)
	out := buf.String()
	for _, want := range []string{"== demo ==", "a", "bb", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestTableWriteCSV(t *testing.T) {
	tab := &Table{Header: []string{"x", "y"}}
	tab.Add("1", `va"l,ue`)
	var buf bytes.Buffer
	tab.WriteCSV(&buf)
	out := buf.String()
	if !strings.HasPrefix(out, "x,y\n") {
		t.Fatalf("csv header wrong: %q", out)
	}
	if !strings.Contains(out, `"va""l,ue"`) {
		t.Fatalf("csv escaping wrong: %q", out)
	}
}

func TestFig3Shape(t *testing.T) {
	tab, err := fig3(Config{}.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 51 {
		t.Fatalf("fig3 rows = %d", len(tab.Rows))
	}
	if tab.Rows[0][1] != "1.000000" {
		t.Fatalf("T(0) = %s", tab.Rows[0][1])
	}
	// T strictly decreasing along the rows.
	prev := 2.0
	for _, row := range tab.Rows {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		if v >= prev {
			t.Fatal("T(t) not strictly decreasing")
		}
		prev = v
	}
}

func TestFig4Shape(t *testing.T) {
	tab, err := fig4(Config{}.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 11 {
		t.Fatalf("fig4 rows = %d", len(tab.Rows))
	}
	if tab.Rows[0][1] != "1.000000" {
		t.Fatalf("S(0) = %s", tab.Rows[0][1])
	}
	if tab.Rows[1][1] != "0.250000" {
		t.Fatalf("S(1) = %s", tab.Rows[1][1])
	}
}

func TestSubgraphEvent(t *testing.T) {
	ev := subgraphEvent(6, []int{1, 4}, 0.7)
	want := []float64{0, 0.7, 0, 0, 0.7, 0}
	for i, p := range ev.Probs {
		if p != want[i] {
			t.Fatalf("probs = %v", ev.Probs)
		}
	}
}

func TestPreparedHelpers(t *testing.T) {
	code, err := qec.NewRepetition(3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := prepare(code, arch.Mesh(5, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.usedRoots()) < code.NumQubits() {
		t.Fatalf("used roots = %v", p.usedRoots())
	}
	// Clean campaign: no radiation, no noise -> zero error.
	cfg := quickCfg
	cfg.P = 1e-12
	rate := p.rate(cfg.Defaults(), noise.NoRadiation(p.tr.Circuit.NumQubits), 1)
	if rate != 0 {
		t.Fatalf("clean rate = %v", rate)
	}
}

func TestSampleUsedSubgraphsStayInUsedSet(t *testing.T) {
	code, err := qec.NewXXZZ(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := prepare(code, arch.Mesh(5, 4))
	if err != nil {
		t.Fatal(err)
	}
	used := map[int]bool{}
	for _, q := range p.usedRoots() {
		used[q] = true
	}
	subs := p.sampleUsedSubgraphs(5, 10, rng.New(3))
	if len(subs) == 0 {
		t.Fatal("no subgraphs sampled")
	}
	for _, s := range subs {
		if len(s) != 5 {
			t.Fatalf("size = %d", len(s))
		}
		for _, q := range s {
			if !used[q] {
				t.Fatalf("subgraph leaked outside used set: %v", s)
			}
		}
	}
}

// --- Sweep-engine integration ---

// The fixed-vs-adaptive equivalence guarantee, half one: at fixed-shot
// settings a sweep-backed rate equals the direct campaign run, because
// batches partition the same seed-derived shot streams (per-shot streams
// for the tableau engine, per-word streams for the batched one).
func TestFixedSweepMatchesDirectCampaign(t *testing.T) {
	code, err := qec.NewRepetition(5)
	if err != nil {
		t.Fatal(err)
	}
	p, err := prepare(code, arch.Mesh(5, 2))
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg.Defaults()
	ev := p.strikeAt(Fig5Root, 1.0, true)

	tabCfg := cfg
	tabCfg.Engine = EngineTableau
	camp := &inject.Campaign{
		Exec:       inject.NewExecutor(p.tr.Circuit, noise.NewDepolarizing(cfg.P), ev),
		DecodeTile: code.DecodeTile,
		Expected:   code.ExpectedLogical(),
	}
	var tab sweep.Counts
	tab.Shots, tab.Errors = camp.RunFrom(77, 0, cfg.Shots)
	if got, want := p.rate(tabCfg, ev, 77), tab.Rate(); got != want {
		t.Fatalf("tableau sweep rate %v != direct campaign rate %v", got, want)
	}

	batchCfg := cfg
	batchCfg.Engine = EngineBatch
	bcamp := &frame.BatchCampaign{
		Sim:        frame.NewBatch(p.tr.Circuit, noise.NewDepolarizing(cfg.P), ev, 77),
		DecodeTile: code.DecodeTile,
		Expected:   code.ExpectedLogical(),
	}
	var direct sweep.Counts
	direct.Shots, direct.Errors = bcamp.RunFrom(77, 0, cfg.Shots)
	if got, want := p.rate(batchCfg, ev, 77), direct.Rate(); got != want {
		t.Fatalf("batched sweep rate %v != direct batched campaign rate %v", got, want)
	}

	// The names bench/ pins are inert, not errors: a Config.Width and a
	// NewEngineRunner width argument are accepted and change nothing.
	widthCfg := batchCfg
	widthCfg.Width = "64"
	if got, want := p.rate(widthCfg, ev, 77), direct.Rate(); got != want {
		t.Fatalf("Config.Width changed the rate: %v, want %v", got, want)
	}
	run := core.NewEngineRunner(core.EngineBatch, p.tr.Circuit, noise.NewDepolarizing(cfg.P), ev, 77,
		code.ExpectedLogical(), code.Decode, code.DecodeTile, 64, 0)
	if shots, errors := run(0, cfg.Shots); shots != direct.Shots || errors != direct.Errors {
		t.Fatalf("NewEngineRunner with a width argument ran %d/%d, want %+v", errors, shots, direct)
	}
}

// The default engine must route every circuit — the repetition family
// AND the XXZZ family — to the batched engine (the universal frame
// engine covers the full Clifford set), the two engine names stay as
// given, and the batched rates must agree with the tableau oracle
// statistically.
func TestEngineAutoSelection(t *testing.T) {
	rep, err := qec.NewRepetition(5)
	if err != nil {
		t.Fatal(err)
	}
	pRep, err := prepare(rep, arch.Mesh(5, 2))
	if err != nil {
		t.Fatal(err)
	}
	xxzz, err := qec.NewXXZZ(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	pXX, err := prepare(xxzz, arch.Mesh(5, 4))
	if err != nil {
		t.Fatal(err)
	}
	if got := Engines(); !slices.Equal(got, []string{EngineTableau, EngineBatch}) {
		t.Fatalf("Engines() = %v, want [tableau batch]", got)
	}
	// A point's engine is the fingerprint's: the name the point runs on.
	engineOf := func(p *prepared, engine string) string {
		cfg := quickCfg
		cfg.Engine = engine
		cfg = cfg.Defaults()
		return p.spec("", cfg, nil, 1).fingerprint(cfg).Engine
	}
	for name, p := range map[string]*prepared{"repetition": pRep, "XXZZ": pXX} {
		if got := engineOf(p, ""); got != EngineBatch {
			t.Fatalf("the default picked %q for %s", got, name)
		}
		for _, eng := range Engines() {
			if got := engineOf(p, eng); got != eng {
				t.Fatalf("%s resolved to %q for %s", eng, got, name)
			}
		}
	}

	// Cross-engine agreement: the batched engine and the tableau oracle
	// sample one distribution on a radiation-exact repetition strike
	// and on a depolarizing-only XXZZ campaign (both exact domains of
	// the universal engine) — a pooled two-sample z-score, since one
	// estimate inside the other's 95% interval is not a test two equal
	// samplers pass.
	cfg := quickCfg.Defaults()
	cfg.Shots = distributionShots(crossEngineShots)
	batchAgreesWithTableau(t, "repetition strike", cfg, pRep, pRep.strikeAt(Fig5Root, 1.0, true), 5)
	cfg.P = 0.03
	batchAgreesWithTableau(t, "XXZZ depolarizing", cfg, pXX, noise.NoRadiation(pXX.tr.Circuit.NumQubits), 7)
}

// p0RateCounts runs a single-point sweep and returns its counts.
func p0RateCounts(t *testing.T, cfg Config, p *prepared, ev *noise.RadiationEvent, seed uint64) sweep.Counts {
	t.Helper()
	res := runSpecs(cfg, []pointSpec{p.spec("", cfg, ev, seed)})
	return res[0].Counts
}

// The satellite determinism regression at the experiment level: the
// same figure swept with 1 and with 8 workers must produce identical
// tables, in fixed and in adaptive mode.
func TestSweepWorkerDeterminism(t *testing.T) {
	run := func(cfg Config) *Table {
		tab, err := fig5(cfg.Defaults())
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	for _, cfg := range []Config{
		{Shots: 30, Seed: 9, NS: 2},
		{Seed: 9, NS: 2, CI: 0.12},
	} {
		one := cfg
		one.Workers = 1
		eight := cfg
		eight.Workers = 8
		a, b := run(one), run(eight)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("ci=%v: workers=1 and workers=8 tables differ:\n%v\nvs\n%v", cfg.CI, a, b)
		}
	}
}

// The adaptive acceptance check, scaled down: with a CI target, fig6
// finishes under the fixed-shot budget that guarantees the same
// precision, and every point ends within the target half-width.
func TestAdaptiveFig6SavesShots(t *testing.T) {
	// The target sits so the worst-case guarantee (~600 shots) exceeds
	// one tile-aligned batch (frame.TileShots = 512): points whose rate
	// converges inside the first batch stop there, and the saving is
	// visible above the batch quantisation.
	const ci = 0.04
	var results []sweep.Result
	cfg := Config{Seed: 3, CI: ci, OnPoint: func(r sweep.Result) {
		results = append(results, r)
	}}
	if _, err := fig6(cfg.Defaults()); err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no points streamed")
	}
	total := 0
	for _, r := range results {
		total += r.Shots
		if r.HalfWidth() > ci {
			t.Fatalf("point %s half-width %v above target %v", r.Key, r.HalfWidth(), ci)
		}
	}
	if fixed := sweep.WorstCaseShots(ci) * len(results); total >= fixed {
		t.Fatalf("adaptive spent %d shots, fixed guarantee costs %d", total, fixed)
	}
}

// TestAdaptiveNoteCountsEveryPoint: an adaptive run's table carries one
// shot-budget note, and it counts every point the experiment ran —
// fig8's twelve cell sweeps, logical's physical and logical-layer
// sweeps on their two engines — as the OnPoint stream saw them.
func TestAdaptiveNoteCountsEveryPoint(t *testing.T) {
	const maxShots = 1024
	for name, wantPoints := range map[string]int{"fig8": 2470, "logical": 14} {
		var shots, points, converged int
		cfg := Config{Seed: 7, Shots: 256, CI: 0.2, MaxShots: maxShots, OnPoint: func(r sweep.Result) {
			shots += r.Shots
			points++
			if r.Converged {
				converged++
			}
		}}
		e, _ := Find(name)
		tab, err := e.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if points != wantPoints {
			t.Fatalf("%s streamed %d points, want %d", name, points, wantPoints)
		}
		var notes []string
		for _, n := range tab.Notes {
			if strings.HasPrefix(n, "adaptive ci=") {
				notes = append(notes, n)
			}
		}
		want := []string{
			fmt.Sprintf("%d shots over %d points vs %d fixed-equivalent", shots, points, points*maxShots),
			fmt.Sprintf("%d/%d points converged", converged, points),
		}
		if len(notes) != 1 || !strings.Contains(notes[0], want[0]) || !strings.HasSuffix(notes[0], want[1]) {
			t.Errorf("%s adaptive notes %q, want one reading %q and %q", name, notes, want[0], want[1])
		}
	}
}

// --- Observation tests: the paper's qualitative claims ---

// Observation I: particle impacts undermine surface codes regardless of
// the intrinsic physical error rate. Even at p=1e-8 the logical error at
// impact stays high.
func TestObservationI(t *testing.T) {
	code, err := qec.NewRepetition(5)
	if err != nil {
		t.Fatal(err)
	}
	p, err := prepare(code, arch.Mesh(5, 2))
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg.Defaults()
	cfg.Shots = 400
	cfg.P = 1e-8
	ev := p.strikeAt(Fig5Root, 1.0, true)
	rate := p.rate(cfg, ev, 9)
	if rate < 0.10 {
		t.Fatalf("impact logical error at p=1e-8 = %v, want >= 10%%", rate)
	}
}

// Observation II: noise and radiation interfere constructively only —
// cranking the physical error rate up never lowers the logical error
// (within statistical margin). Tested on the paper's Figure 5a setup,
// whose rates sit below the 50% saturation point; above saturation any
// extra randomness regresses toward a coin flip, as fig5's XXZZ impact
// rows show on both engines (README.md, "Verdict").
func TestObservationII(t *testing.T) {
	code, err := qec.NewRepetition(5)
	if err != nil {
		t.Fatal(err)
	}
	p, err := prepare(code, arch.Mesh(5, 2))
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg.Defaults()
	cfg.Shots = 500
	ev := p.strikeAt(Fig5Root, 1.0, true)
	cfg.P = 1e-8
	quiet := p.rate(cfg, ev, 11)
	cfg.P = 1e-1
	loud := p.rate(cfg, ev, 11)
	if loud < quiet-0.05 {
		t.Fatalf("noise lowered the logical error: p=1e-1 %.3f vs p=1e-8 %.3f", loud, quiet)
	}
	// And on the quiet tail of the fault, noise alone must still raise
	// the error floor.
	tail := p.strikeAt(Fig5Root, noise.Temporal(0.9), true)
	cfg.P = 1e-8
	tailQuiet := p.rate(cfg, tail, 13)
	cfg.P = 1e-1
	tailLoud := p.rate(cfg, tail, 13)
	if tailLoud <= tailQuiet {
		t.Fatalf("intrinsic noise floor missing: %.3f vs %.3f", tailLoud, tailQuiet)
	}
}

// Observation III (XXZZ family): larger codes are more sensitive to the
// same fault intensity — (3,5) degrades versus (3,3).
func TestObservationIII(t *testing.T) {
	topo := arch.Mesh(5, 6)
	cfg := quickCfg.Defaults()
	med := func(dZ, dX int) float64 {
		code, err := qec.NewXXZZ(dZ, dX)
		if err != nil {
			t.Fatal(err)
		}
		p, err := prepare(code, topo)
		if err != nil {
			t.Fatal(err)
		}
		var rates []float64
		for ri, root := range p.usedRoots() {
			ev := p.strikeAt(root, 1.0, false)
			rates = append(rates, p.rate(cfg, ev, uint64(1000+ri)))
		}
		return stats.Median(rates)
	}
	small, large := med(3, 3), med(3, 5)
	if large <= small {
		t.Fatalf("xxzz-(3,5) (%.3f) should exceed xxzz-(3,3) (%.3f)", large, small)
	}
}

// Observation IV: bit-flip protection beats phase-flip protection for
// like-sized codes under reset faults: (3,1) < (1,3) and (5,3) < (3,5).
func TestObservationIV(t *testing.T) {
	topo := arch.Mesh(5, 6)
	cfg := quickCfg.Defaults()
	med := func(dZ, dX int) float64 {
		code, err := qec.NewXXZZ(dZ, dX)
		if err != nil {
			t.Fatal(err)
		}
		p, err := prepare(code, topo)
		if err != nil {
			t.Fatal(err)
		}
		var rates []float64
		for ri, root := range p.usedRoots() {
			ev := p.strikeAt(root, 1.0, false)
			rates = append(rates, p.rate(cfg, ev, uint64(2000+ri)))
		}
		return stats.Median(rates)
	}
	if bit, phase := med(3, 1), med(1, 3); bit >= phase {
		t.Fatalf("xxzz-(3,1) (%.3f) should beat xxzz-(1,3) (%.3f)", bit, phase)
	}
	if bit, phase := med(5, 3), med(3, 5); bit >= phase {
		t.Fatalf("xxzz-(5,3) (%.3f) should beat xxzz-(3,5) (%.3f)", bit, phase)
	}
}

// Observations V and VI: a single spreading fault is worse than several
// independent erasures; only erasing more than half the qubits overtakes
// it (the threshold effect). Each ordering is a pooled two-sample z of
// at least 3: the spreading strike's point against the errors and shots
// summed over the sampled erasure sets. With erasures exact on the
// batched engine (stab.StruckOf), one 64-shot word a point is the
// smallest power of two that gives both: the rates read 46/64 (spread)
// against 149/384 (two erasures) and 256/256 (fifteen), z = 4.9 and
// 8.7 (32 shots give 3.5 and 6.2). Under the collapsed-branch
// approximation the 15-erasure rate read 0.50, and VI needed 3000
// shots a point to show at z = 2.7.
func TestObservationVVI(t *testing.T) {
	code, err := qec.NewXXZZ(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := prepare(code, arch.Mesh(5, 6))
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg.Defaults()
	cfg.Shots = 64
	// counts sums the errors and shots of the points.
	counts := func(specs []pointSpec) (errors, shots int) {
		for _, r := range runSpecs(cfg, specs) {
			errors, shots = errors+r.Errors, shots+r.Shots
		}
		return errors, shots
	}
	erasures := func(subs [][]int, seed uint64) []pointSpec {
		var specs []pointSpec
		for si, members := range subs {
			specs = append(specs, p.spec("", cfg, subgraphEvent(p.tr.Circuit.NumQubits, members, 1.0), seed+uint64(si)))
		}
		return specs
	}
	// Spreading strike at a data-heavy root.
	spreadK, spreadN := counts([]pointSpec{p.spec("", cfg, p.strikeAt(p.usedRoots()[0], 1.0, true), 31)})
	// A couple of independent erasures.
	src := rng.New(17)
	smallK, smallN := counts(erasures(p.sampleUsedSubgraphs(2, 6, src), 40))
	// Erasing most of the chip overtakes the single spreading fault.
	bigK, bigN := counts(erasures(p.sampleUsedSubgraphs(15, 4, src), 60))
	zV := stats.TwoSampleZ(spreadK, spreadN, smallK, smallN)
	zVI := stats.TwoSampleZ(bigK, bigN, spreadK, spreadN)
	t.Logf("spread %d/%d, 2-erasures %d/%d, 15-erasures %d/%d: z(V) = %.2f, z(VI) = %.2f",
		spreadK, spreadN, smallK, smallN, bigK, bigN, zV, zVI)
	if zV < 3 {
		t.Errorf("spreading fault (%d/%d) should exceed 2-qubit erasures (%d/%d): z = %.2f",
			spreadK, spreadN, smallK, smallN, zV)
	}
	if zVI < 3 {
		t.Errorf("15-qubit erasures (%d/%d) should exceed the single spreading fault (%d/%d): z = %.2f",
			bigK, bigN, spreadK, spreadN, zVI)
	}
}

// Observation VII: qubits used earlier in the gate sequence are more
// critical radiation targets than ones used later.
func TestObservationVII(t *testing.T) {
	code, err := qec.NewRepetition(5)
	if err != nil {
		t.Fatal(err)
	}
	p, err := prepare(code, arch.Mesh(5, 2))
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg.Defaults()
	cfg.Shots = 400
	// Strike the physical home of the first-used data qubit versus the
	// last-used data qubit, with full spread and time evolution.
	first := p.tr.Initial.LogToPhys[code.Data.Start]
	last := p.tr.Initial.LogToPhys[code.Data.Start+code.Data.Size-1]
	early := stats.Mean(resultRates(runSpecs(cfg, p.evolutionSpecs("early", cfg, first, true, 71))))
	late := stats.Mean(resultRates(runSpecs(cfg, p.evolutionSpecs("late", cfg, last, true, 72))))
	if early < late-0.05 {
		t.Fatalf("early-qubit strike (%.3f) should not be milder than late-qubit strike (%.3f)", early, late)
	}
}

// Observation VIII: degree-starved topologies inflate SWAP counts for
// the XXZZ code (whose stabilizers need degree >= 4), and well-connected
// ones contain the fault spread.
func TestObservationVIII(t *testing.T) {
	code, err := qec.NewXXZZ(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	trLinear, err := arch.Transpile(code.Circ, arch.Linear(18))
	if err != nil {
		t.Fatal(err)
	}
	trComplete, err := arch.Transpile(code.Circ.Clone(), arch.Complete(18))
	if err != nil {
		t.Fatal(err)
	}
	if trLinear.SwapCount <= trComplete.SwapCount {
		t.Fatalf("linear swaps (%d) should exceed complete swaps (%d)",
			trLinear.SwapCount, trComplete.SwapCount)
	}
	if trComplete.SwapCount != 0 {
		t.Fatalf("complete topology required %d swaps", trComplete.SwapCount)
	}
}

// The ablation harnesses must run and produce full tables.
func TestAblationsRun(t *testing.T) {
	cfg := Config{Shots: 60, Seed: 5}
	if tab, err := ablationDecoder(cfg.Defaults()); err != nil || len(tab.Rows) != 6 {
		t.Fatalf("decoder ablation: %v rows=%d", err, len(tab.Rows))
	}
	if tab, err := ablationTemporalSamples(cfg.Defaults()); err != nil || len(tab.Rows) != 5 {
		t.Fatalf("ns ablation: %v", err)
	}
	if tab, err := ablationLayout(cfg.Defaults()); err != nil || len(tab.Rows) != 4 {
		t.Fatalf("layout ablation: %v", err)
	}
	if tab, err := ablationRounds(cfg.Defaults()); err != nil || len(tab.Rows) != 4 {
		t.Fatalf("rounds ablation: %v", err)
	}
}

func TestFig5RunsSmall(t *testing.T) {
	tab, err := fig5(Config{Shots: 20, Seed: 2, NS: 3}.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	// 2 codes x 8 rates x 3 samples.
	if len(tab.Rows) != 48 {
		t.Fatalf("fig5 rows = %d", len(tab.Rows))
	}
}

func TestFig6RunsSmall(t *testing.T) {
	tab, err := fig6(Config{Shots: 10, Seed: 2}.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 12 {
		t.Fatalf("fig6 rows = %d", len(tab.Rows))
	}
}

func TestFig7RunsSmall(t *testing.T) {
	tab, err := fig7(Config{Shots: 10, Seed: 2}.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 10 {
		t.Fatalf("fig7 rows = %d", len(tab.Rows))
	}
}

// TestFig8RunsSmall: fig8 covers its 12 (code, architecture) cells —
// 5 repetition topologies and 7 XXZZ ones — and every row carries its
// cell's routing overhead, the SWAPs and two-qubit gates of the
// transpiled circuit.
func TestFig8RunsSmall(t *testing.T) {
	cfg := Config{Shots: 5, Seed: 2, NS: 2}
	tab, err := fig8(cfg.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if i := slices.Index(tab.Header, "two_qubit_gates"); i != 3 || tab.Header[2] != "swaps" {
		t.Fatalf("fig8 header %v: want two_qubit_gates right after swaps", tab.Header)
	}
	type overhead struct{ swaps, twoQubit string }
	want := map[string]overhead{}
	rep, err := cfg.Defaults().repetition(11)
	if err != nil {
		t.Fatal(err)
	}
	xxzz, err := cfg.Defaults().xxzz(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	for code, topos := range map[*qec.Code][]arch.Topology{rep: Fig8RepTopologies(), xxzz: Fig8XXZZTopologies()} {
		for _, topo := range topos {
			tr, err := arch.Transpile(code.Circ, topo)
			if err != nil {
				t.Fatal(err)
			}
			want[code.Name+" on "+topo.Name] = overhead{strconv.Itoa(tr.SwapCount), strconv.Itoa(tr.Circuit.CountTwoQubit())}
		}
	}
	if len(want) != 12 {
		t.Fatalf("%d fig8 cells, want 12", len(want))
	}
	seen := map[string]bool{}
	for _, row := range tab.Rows {
		cell := row[0] + " on " + row[1]
		w, ok := want[cell]
		if !ok {
			t.Fatalf("row %v is not a fig8 cell", row)
		}
		if got := (overhead{row[2], row[3]}); got != w {
			t.Errorf("%s: swaps %s, two_qubit_gates %s; transpiled circuit has %s and %s", cell, got.swaps, got.twoQubit, w.swaps, w.twoQubit)
		}
		seen[cell] = true
	}
	if len(seen) != 12 || len(tab.Notes) != 12 {
		t.Fatalf("fig8 rendered %d cells and %d notes, want 12 of each", len(seen), len(tab.Notes))
	}
}

func TestMemoryExperiment(t *testing.T) {
	cfg := quickCfg
	cfg.Shots = 128
	tab, err := memory(cfg.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("memory table is empty")
	}
	// Every entry's sweep must include the paper's 2 rounds and the
	// rounds=d memory point, and deepening the memory must not shrink
	// the impact-column error for the repetition families.
	sawRounds := map[string]map[string]bool{}
	for _, row := range tab.Rows {
		code, rounds := row[1], row[2]
		if sawRounds[code] == nil {
			sawRounds[code] = map[string]bool{}
		}
		sawRounds[code][rounds] = true
	}
	for code, want := range map[string]string{
		"rep-(5,1)": "5", "rep-(9,1)": "9", "xxzz-(3,3)": "3",
	} {
		if !sawRounds[code]["2"] {
			t.Fatalf("%s sweep misses the 2-round baseline: %v", code, sawRounds[code])
		}
		if !sawRounds[code][want] {
			t.Fatalf("%s sweep misses the rounds=d point: %v", code, sawRounds[code])
		}
	}
}

func TestMemoryRoundsSweep(t *testing.T) {
	cfg := Config{Rounds: 11}.Defaults()
	rounds := memoryRounds(cfg, 5)
	seen := map[int]bool{}
	last := 1
	for _, r := range rounds {
		if r <= last {
			t.Fatalf("rounds not strictly increasing: %v", rounds)
		}
		last = r
		seen[r] = true
	}
	for _, want := range []int{2, 5, 11} {
		if !seen[want] {
			t.Fatalf("rounds sweep %v misses %d", rounds, want)
		}
	}
}

func TestConfigRoundsFlowsIntoFigureCodes(t *testing.T) {
	cfg := quickCfg
	cfg.Rounds = 3
	cfg.Shots = 64
	cfg = cfg.Defaults()
	c, err := cfg.repetition(5)
	if err != nil {
		t.Fatal(err)
	}
	if c.Rounds != 3 {
		t.Fatalf("cfg.repetition built %d rounds, want 3", c.Rounds)
	}
	x, err := cfg.xxzz(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if x.Rounds != 3 {
		t.Fatalf("cfg.xxzz built %d rounds, want 3", x.Rounds)
	}
	// A full figure runs end-to-end at 3 rounds.
	if _, err := threshold(cfg.Defaults()); err != nil {
		t.Fatal(err)
	}
}
