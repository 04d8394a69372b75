package core_test

// The library façade, exp.Simulator, runs every call through
// core.NewEngineRunner; these tests drive it end to end on both
// engines.

import (
	"slices"
	"strings"
	"testing"

	"radqec/internal/core"
	"radqec/internal/exp"
	"radqec/internal/frame"
	"radqec/internal/noise"
	"radqec/internal/stats"
	"radqec/internal/sweep"
)

func quickSim(t *testing.T, family string, dZ, dX int, topo string) *exp.Simulator {
	t.Helper()
	sim, err := exp.NewSimulator(exp.Config{Shots: 200, Seed: 7, NS: 4}, family, dZ, dX, topo)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func rates(rs []sweep.Result) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Rate()
	}
	return out
}

func TestNewSimulatorRejectsUnknownFamily(t *testing.T) {
	if _, err := exp.NewSimulator(exp.Config{}, "steane", 3, 3, "mesh"); err == nil {
		t.Fatal("unknown family accepted")
	}
}

func TestNewSimulatorRejectsBadDistance(t *testing.T) {
	if _, err := exp.NewSimulator(exp.Config{}, exp.FamilyRepetition, 4, 1, "mesh"); err == nil {
		t.Fatal("even distance accepted")
	}
}

func TestNewSimulatorRejectsBadTopology(t *testing.T) {
	if _, err := exp.NewSimulator(exp.Config{}, exp.FamilyRepetition, 5, 1, "moebius"); err == nil {
		t.Fatal("unknown topology accepted")
	}
}

func TestCleanRunIsErrorFree(t *testing.T) {
	sim, err := exp.NewSimulator(exp.Config{Shots: 200, Seed: 7, NS: 4, P: 1e-12},
		exp.FamilyRepetition, 5, 1, "mesh")
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Clean()
	if res.Errors != 0 {
		t.Fatalf("clean run produced %d errors", res.Errors)
	}
	if res.Shots != 200 {
		t.Fatalf("shots = %d", res.Shots)
	}
}

func TestStrikeDegrades(t *testing.T) {
	sim := quickSim(t, exp.FamilyXXZZ, 3, 3, "mesh")
	ev := rates(sim.Strike(sim.UsedQubits()[0]))
	if len(ev) != 4 {
		t.Fatalf("samples = %d", len(ev))
	}
	if ev[0] == 0 {
		t.Fatal("impact sample shows no degradation")
	}
	// Impact must be at least as bad as the decayed tail.
	tail := ev[len(ev)-1]
	if ev[0] < tail {
		t.Fatal("fault did not decay over time")
	}
	if stats.Mean(ev) < tail {
		t.Fatal("overall rate below tail rate")
	}
	if m := stats.Median(ev); m < 0 || m > 1 {
		t.Fatal("median out of range")
	}
}

func TestStrikeNoSpreadIsMilder(t *testing.T) {
	sim := quickSim(t, exp.FamilyXXZZ, 3, 3, "mesh")
	root := sim.UsedQubits()[0]
	spread := sim.StrikeAtImpact(root, true)
	erase := sim.StrikeAtImpact(root, false)
	if spread.Rate() < erase.Rate() {
		t.Fatalf("spreading strike (%.3f) milder than erasure (%.3f)", spread.Rate(), erase.Rate())
	}
}

func TestEraseMajorityFails(t *testing.T) {
	sim := quickSim(t, exp.FamilyRepetition, 5, 1, "mesh")
	res := sim.Erase(sim.UsedQubits())
	if res.Rate() < 0.5 {
		t.Fatalf("full-chip erasure rate = %.3f", res.Rate())
	}
}

// assertOutOfRangePanics checks that each method rejects a physical
// qubit one off either end of the device with the façade's own
// message, not a raw index panic.
func assertOutOfRangePanics(t *testing.T, sim *exp.Simulator, methods map[string]func(q int)) {
	t.Helper()
	for name, call := range methods {
		for _, q := range []int{-1, sim.NumPhysicalQubits()} {
			func() {
				defer func() {
					if msg, _ := recover().(string); !strings.HasPrefix(msg, "exp: ") || !strings.Contains(msg, "out of range") {
						t.Errorf("%s(%d): recovered %q, want an exp: ... out of range panic", name, q, msg)
					}
				}()
				call(q)
			}()
		}
	}
}

func TestErasePanicsOutOfRange(t *testing.T) {
	sim := quickSim(t, exp.FamilyRepetition, 3, 1, "mesh")
	assertOutOfRangePanics(t, sim, map[string]func(q int){
		"Erase": func(q int) { sim.Erase([]int{q}) },
	})
}

func TestStrikePanicsOutOfRange(t *testing.T) {
	sim := quickSim(t, exp.FamilyRepetition, 3, 1, "mesh")
	assertOutOfRangePanics(t, sim, map[string]func(q int){
		"Strike":         func(q int) { sim.Strike(q) },
		"StrikeAtImpact": func(q int) { sim.StrikeAtImpact(q, true) },
	})
}

// TestResultCI: a façade run's Wilson interval brackets its rate, and a
// result with no shots has rate 0.
func TestResultCI(t *testing.T) {
	sim := quickSim(t, exp.FamilyXXZZ, 3, 3, "mesh")
	r := sim.StrikeAtImpact(sim.UsedQubits()[0], true)
	if r.Rate() <= 0 || r.Rate() >= 1 {
		t.Fatalf("rate %v does not exercise both interval ends", r.Rate())
	}
	if !(r.CILo < r.Rate() && r.Rate() < r.CIHi) {
		t.Fatalf("CI [%v,%v] does not bracket rate %v", r.CILo, r.CIHi, r.Rate())
	}
	if lo, hi := stats.WilsonCI(r.Errors, r.Shots); lo != r.CILo || hi != r.CIHi {
		t.Fatalf("CI [%v,%v], Wilson [%v,%v]", r.CILo, r.CIHi, lo, hi)
	}
	if empty := (sweep.Result{}); empty.Rate() != 0 {
		t.Fatal("empty rate nonzero")
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() sweep.Result {
		sim := quickSim(t, exp.FamilyXXZZ, 3, 3, "mesh")
		return sim.StrikeAtImpact(2, true)
	}
	a, b := mk(), mk()
	if a != b {
		t.Fatalf("campaigns not deterministic: %+v vs %+v", a, b)
	}
}

func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	mk := func(workers int) sweep.Result {
		sim, err := exp.NewSimulator(exp.Config{
			Shots:   1300, // three tiles: eight workers fan out over them
			Seed:    21,
			Workers: workers,
		}, exp.FamilyRepetition, 5, 1, "mesh")
		if err != nil {
			t.Fatal(err)
		}
		return sim.StrikeAtImpact(2, true)
	}
	if a, b := mk(1), mk(8); a != b {
		t.Fatalf("worker count changed results: %+v vs %+v", a, b)
	}
}

func TestSimulatorOnIBMDevices(t *testing.T) {
	for _, topo := range []string{"cairo", "almaden", "brooklyn", "cambridge", "johannesburg"} {
		sim := quickSim(t, exp.FamilyXXZZ, 3, 3, topo)
		if got := sim.NumPhysicalQubits(); got < 18 {
			t.Fatalf("%s: %d physical qubits", topo, got)
		}
		res := sim.StrikeAtImpact(sim.UsedQubits()[0], true)
		if res.Shots == 0 {
			t.Fatalf("%s: no shots ran", topo)
		}
	}
}

func TestNewSimulatorRejectsUnknownEngineAndDecoder(t *testing.T) {
	for _, engine := range []string{"warp", "frame", "auto"} {
		if _, err := exp.NewSimulator(exp.Config{Engine: engine}, exp.FamilyRepetition, 5, 1, "mesh"); err == nil {
			t.Fatalf("engine %q accepted", engine)
		}
	}
	for _, decoder := range []string{"psychic", "uf", "greedy"} {
		if _, err := exp.NewSimulator(exp.Config{Decoder: decoder}, exp.FamilyRepetition, 5, 1, "mesh"); err == nil {
			t.Fatalf("decoder %q accepted", decoder)
		}
	}
}

func TestResolveEngineUniversalAuto(t *testing.T) {
	// Config.Defaults fills the empty name in as the batched engine for
	// every circuit; the two names stay as given; anything else — the
	// retired scalar "frame" and the "auto" alias included — is
	// Validate's error naming the two.
	if got := core.Engines(); !slices.Equal(got, []string{core.EngineTableau, core.EngineBatch}) {
		t.Fatalf("Engines() = %v, want [tableau batch]", got)
	}
	for name, want := range map[string]string{"": core.EngineBatch, core.EngineTableau: core.EngineTableau, core.EngineBatch: core.EngineBatch} {
		cfg := exp.Config{Engine: name}.Defaults()
		if err := cfg.Validate(); cfg.Engine != want || err != nil {
			t.Fatalf("Defaults() turned %q into %q (want %q), Validate: %v", name, cfg.Engine, want, err)
		}
	}
	for _, name := range []string{"qutrit", "frame", "auto"} {
		if err := (exp.Config{Engine: name}).Defaults().Validate(); err == nil || !strings.Contains(err.Error(), "[tableau batch]") {
			t.Fatalf("engine %q: error %v, want one naming [tableau batch]", name, err)
		}
	}
}

func TestDecoderSelection(t *testing.T) {
	// The façade decodes with MWPM only; union-find, like in the
	// ablation-decoder experiment, is a decode function set per
	// campaign. Both read the same clean XXZZ campaign through the
	// batched engine at the same seed, so they see identical shot
	// streams; rates may differ (union-find is suboptimal) but both must
	// produce full campaigns, and MWPM must be at least as accurate.
	cfg := exp.Config{Shots: 2000, Seed: 7, P: 0.05}
	sim, err := exp.NewSimulator(cfg, exp.FamilyXXZZ, 3, 3, "mesh")
	if err != nil {
		t.Fatal(err)
	}
	code := sim.Code()
	rate := func(dec frame.TileDecodeFunc) sweep.Result {
		shots, errors := core.NewEngineRunner(core.EngineBatch, sim.Transpiled().Circuit,
			noise.NewDepolarizing(cfg.P), noise.NoRadiation(sim.NumPhysicalQubits()), cfg.Seed,
			code.ExpectedLogical(), nil, dec, 0, 1)(0, cfg.Shots)
		return sweep.Result{Counts: sweep.Counts{Shots: shots, Errors: errors}}
	}
	mwpm := rate(code.DecodeTile)
	uf := rate(code.DecodeUnionFindTile)
	if clean := sim.Clean(); clean.Counts != mwpm.Counts {
		t.Fatalf("façade counts %+v, MWPM campaign %+v", clean.Counts, mwpm.Counts)
	}
	if mwpm.Shots != 2000 || uf.Shots != 2000 {
		t.Fatalf("incomplete campaigns: mwpm %+v uf %+v", mwpm, uf)
	}
	if mwpm.Errors == 0 || uf.Errors == 0 {
		t.Fatalf("no errors at p=0.05: mwpm %+v uf %+v", mwpm, uf)
	}
	if mwpm.Rate() > uf.Rate()+0.03 {
		t.Fatalf("MWPM (%.4f) should not be worse than union-find (%.4f)", mwpm.Rate(), uf.Rate())
	}
}

func TestSimulatorRounds(t *testing.T) {
	// Rounds flows from the config into the built code, and multi-round
	// campaigns run end-to-end on every engine over the space-time
	// detector-error model.
	for _, engine := range core.Engines() {
		sim, err := exp.NewSimulator(exp.Config{
			Rounds: 5,
			Shots:  256,
			Seed:   3,
			Engine: engine,
		}, exp.FamilyRepetition, 5, 1, "mesh")
		if err != nil {
			t.Fatal(err)
		}
		if sim.Code().Rounds != 5 {
			t.Fatalf("code built with %d rounds, want 5", sim.Code().Rounds)
		}
		res := sim.Clean()
		if res.Shots != 256 {
			t.Fatalf("%s: incomplete campaign %+v", engine, res)
		}
		if res.Rate() > 0.2 {
			t.Fatalf("%s: 5-round clean campaign at default p errs %.2f", engine, res.Rate())
		}
	}
	if _, err := exp.NewSimulator(exp.Config{Rounds: 1}, exp.FamilyXXZZ, 3, 3, "mesh"); err == nil {
		t.Fatal("1-round config accepted")
	}
}

func TestSimulatorRoundsDefault(t *testing.T) {
	sim, err := exp.NewSimulator(exp.Config{}, exp.FamilyXXZZ, 3, 3, "mesh")
	if err != nil {
		t.Fatal(err)
	}
	if sim.Code().Rounds != 2 {
		t.Fatalf("default rounds = %d, want the paper's 2", sim.Code().Rounds)
	}
}
