package core

import (
	"slices"
	"strings"
	"testing"

	"radqec/internal/arch"
	"radqec/internal/noise"
	"radqec/internal/qec"
)

func quickSim(t *testing.T, spec CodeSpec, topo string) *Simulator {
	t.Helper()
	sim, err := NewSimulator(Options{
		Code:            spec,
		Topology:        topo,
		Shots:           200,
		Seed:            7,
		TemporalSamples: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func TestNewSimulatorRejectsUnknownFamily(t *testing.T) {
	if _, err := NewSimulator(Options{Code: CodeSpec{Family: "steane"}}); err == nil {
		t.Fatal("unknown family accepted")
	}
}

func TestNewSimulatorRejectsBadDistance(t *testing.T) {
	if _, err := NewSimulator(Options{Code: CodeSpec{Family: FamilyRepetition, DZ: 4}}); err == nil {
		t.Fatal("even distance accepted")
	}
}

func TestNewSimulatorRejectsBadTopology(t *testing.T) {
	if _, err := NewSimulator(Options{
		Code:     CodeSpec{Family: FamilyRepetition, DZ: 5},
		Topology: "moebius",
	}); err == nil {
		t.Fatal("unknown topology accepted")
	}
}

func TestCleanRunIsErrorFree(t *testing.T) {
	sim := quickSim(t, CodeSpec{Family: FamilyRepetition, DZ: 5}, "mesh")
	sim.opts.PhysicalErrorRate = 1e-12
	res := sim.Clean()
	if res.Errors != 0 {
		t.Fatalf("clean run produced %d errors", res.Errors)
	}
	if res.Shots != 200 {
		t.Fatalf("shots = %d", res.Shots)
	}
}

func TestStrikeDegrades(t *testing.T) {
	sim := quickSim(t, CodeSpec{Family: FamilyXXZZ, DZ: 3, DX: 3}, "mesh")
	ev := sim.Strike(sim.UsedQubits()[0])
	if len(ev.Samples) != 4 {
		t.Fatalf("samples = %d", len(ev.Samples))
	}
	if ev.Samples[0].Rate() == 0 {
		t.Fatal("impact sample shows no degradation")
	}
	// Impact must be at least as bad as the decayed tail.
	if ev.Samples[0].Rate() < ev.Samples[len(ev.Samples)-1].Rate() {
		t.Fatal("fault did not decay over time")
	}
	if ev.Overall() < ev.Samples[len(ev.Samples)-1].Rate() {
		t.Fatal("overall rate below tail rate")
	}
	if ev.Median() < 0 || ev.Median() > 1 {
		t.Fatal("median out of range")
	}
}

func TestStrikeNoSpreadIsMilder(t *testing.T) {
	sim := quickSim(t, CodeSpec{Family: FamilyXXZZ, DZ: 3, DX: 3}, "mesh")
	root := sim.UsedQubits()[0]
	spread := sim.StrikeAtImpact(root, true)
	erase := sim.StrikeAtImpact(root, false)
	if spread.Rate() < erase.Rate() {
		t.Fatalf("spreading strike (%.3f) milder than erasure (%.3f)", spread.Rate(), erase.Rate())
	}
}

func TestEraseMajorityFails(t *testing.T) {
	sim := quickSim(t, CodeSpec{Family: FamilyRepetition, DZ: 5}, "mesh")
	res := sim.Erase(sim.UsedQubits())
	if res.Rate() < 0.5 {
		t.Fatalf("full-chip erasure rate = %.3f", res.Rate())
	}
}

// assertOutOfRangePanics checks that each method rejects a physical
// qubit one off either end of the device with the package's own
// message, not a raw index panic.
func assertOutOfRangePanics(t *testing.T, sim *Simulator, methods map[string]func(q int)) {
	t.Helper()
	for name, call := range methods {
		for _, q := range []int{-1, sim.NumPhysicalQubits()} {
			func() {
				defer func() {
					if msg, _ := recover().(string); !strings.HasPrefix(msg, "core: ") || !strings.Contains(msg, "out of range") {
						t.Errorf("%s(%d): recovered %q, want a core: ... out of range panic", name, q, msg)
					}
				}()
				call(q)
			}()
		}
	}
}

func TestErasePanicsOutOfRange(t *testing.T) {
	sim := quickSim(t, CodeSpec{Family: FamilyRepetition, DZ: 3}, "mesh")
	assertOutOfRangePanics(t, sim, map[string]func(q int){
		"Erase": func(q int) { sim.Erase([]int{q}) },
	})
}

func TestStrikePanicsOutOfRange(t *testing.T) {
	sim := quickSim(t, CodeSpec{Family: FamilyRepetition, DZ: 3}, "mesh")
	assertOutOfRangePanics(t, sim, map[string]func(q int){
		"Strike":         func(q int) { sim.Strike(q) },
		"StrikeAtImpact": func(q int) { sim.StrikeAtImpact(q, true) },
	})
}

func TestResultCI(t *testing.T) {
	r := Result{Shots: 100, Errors: 50}
	lo, hi := r.CI()
	if !(lo < 0.5 && 0.5 < hi) {
		t.Fatalf("CI [%v,%v]", lo, hi)
	}
	if r.Rate() != 0.5 {
		t.Fatalf("rate = %v", r.Rate())
	}
	empty := Result{}
	if empty.Rate() != 0 {
		t.Fatal("empty rate nonzero")
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() Result {
		sim := quickSim(t, CodeSpec{Family: FamilyXXZZ, DZ: 3, DX: 3}, "mesh")
		return sim.StrikeAtImpact(2, true)
	}
	a, b := mk(), mk()
	if a != b {
		t.Fatalf("campaigns not deterministic: %+v vs %+v", a, b)
	}
}

func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	mk := func(workers int) Result {
		sim, err := NewSimulator(Options{
			Code:     CodeSpec{Family: FamilyRepetition, DZ: 5},
			Topology: "mesh",
			Shots:    1300, // three tiles: eight workers fan out over them
			Seed:     21,
			Workers:  workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sim.StrikeAtImpact(2, true)
	}
	if a, b := mk(1), mk(8); a != b {
		t.Fatalf("worker count changed results: %+v vs %+v", a, b)
	}
}

// TestEngineRunnerScalarDecodeInert: NewEngineRunner's scalar decode
// argument is inert — both engines decode through decodeTile — so a nil
// scalar decoder, or one that is always wrong, counts exactly what
// code.Decode does, on a range that starts and ends mid-word.
func TestEngineRunnerScalarDecodeInert(t *testing.T) {
	code, err := qec.NewRepetition(3)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := arch.Transpile(code.Circ, arch.Mesh(5, 2))
	if err != nil {
		t.Fatal(err)
	}
	ev := noise.NewRadiationEvent(tr.Topo.Graph.AllPairsShortestPaths()[2], 1.0, true)
	wrong := func([]int) int { return 1 - code.ExpectedLogical() }
	for _, engine := range Engines() {
		counts := func(decode func([]int) int) [2]int {
			run := NewEngineRunner(engine, tr.Circuit, noise.NewDepolarizing(0.05), ev, 99,
				code.ExpectedLogical(), decode, code.DecodeTile, 0, 1)
			var c [2]int
			c[0], c[1] = run(37, 700)
			return c
		}
		want := counts(code.Decode)
		if want[0] != 700 || want[1] == 0 || want[1] == 700 {
			t.Fatalf("%s: counts (shots, errors) %v do not tell decoders apart", engine, want)
		}
		for name, decode := range map[string]func([]int) int{"nil": nil, "always-wrong": wrong} {
			if got := counts(decode); got != want {
				t.Fatalf("%s: %s scalar decode counts %v, code.Decode %v", engine, name, got, want)
			}
		}
	}
}

func TestSimulatorOnIBMDevices(t *testing.T) {
	for _, topo := range []string{"cairo", "almaden", "brooklyn", "cambridge", "johannesburg"} {
		sim := quickSim(t, CodeSpec{Family: FamilyXXZZ, DZ: 3, DX: 3}, topo)
		if got := sim.NumPhysicalQubits(); got < 18 {
			t.Fatalf("%s: %d physical qubits", topo, got)
		}
		res := sim.StrikeAtImpact(sim.UsedQubits()[0], true)
		if res.Shots == 0 {
			t.Fatalf("%s: no shots ran", topo)
		}
	}
}

func TestResolveEngineUniversalAuto(t *testing.T) {
	// Empty resolves to the batched engine for every circuit; the two
	// names resolve to themselves; anything else — the retired scalar
	// "frame" and the "auto" alias included — is an error naming the two.
	if got := Engines(); !slices.Equal(got, []string{EngineTableau, EngineBatch}) {
		t.Fatalf("Engines() = %v, want [tableau batch]", got)
	}
	if eng, err := ResolveEngine(""); err != nil || eng != EngineBatch {
		t.Fatalf("ResolveEngine(\"\") = %q, %v", eng, err)
	}
	for _, name := range Engines() {
		if eng, err := ResolveEngine(name); err != nil || eng != name {
			t.Fatalf("ResolveEngine(%q) = %q, %v", name, eng, err)
		}
	}
	for _, name := range []string{"qutrit", "frame", "auto"} {
		if _, err := ResolveEngine(name); err == nil || !strings.Contains(err.Error(), "[tableau batch]") {
			t.Fatalf("ResolveEngine(%q): error %v, want one naming [tableau batch]", name, err)
		}
	}
}

func TestNewSimulatorRejectsUnknownEngineAndDecoder(t *testing.T) {
	base := Options{Code: CodeSpec{Family: FamilyRepetition, DZ: 5}}
	for _, engine := range []string{"warp", "frame", "auto"} {
		bad := base
		bad.Engine = engine
		if _, err := NewSimulator(bad); err == nil {
			t.Fatalf("engine %q accepted", engine)
		}
	}
	bad := base
	bad.Decoder = "psychic"
	if _, err := NewSimulator(bad); err == nil {
		t.Fatal("unknown decoder accepted")
	}
}

func TestDecoderSelection(t *testing.T) {
	// Both decoders run the same XXZZ campaign through the batched
	// engine; rates may differ (union-find is suboptimal) but both must
	// produce full campaigns, and MWPM must be at least as accurate.
	rate := func(decoder string) Result {
		sim, err := NewSimulator(Options{
			Code:              CodeSpec{Family: FamilyXXZZ, DZ: 3, DX: 3},
			Topology:          "mesh",
			Shots:             2000,
			Seed:              7,
			Decoder:           decoder,
			PhysicalErrorRate: 0.05,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sim.Clean()
	}
	mwpm := rate(DecoderMWPM)
	uf := rate(DecoderUF)
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
	// Rounds flows from the spec into the built code, and multi-round
	// campaigns run end-to-end on every engine/decoder combination over
	// the space-time detector-error model.
	for _, engine := range Engines() {
		for _, decoder := range []string{DecoderMWPM, DecoderUF} {
			sim, err := NewSimulator(Options{
				Code:     CodeSpec{Family: FamilyRepetition, DZ: 5, Rounds: 5},
				Topology: "mesh",
				Shots:    256,
				Seed:     3,
				Engine:   engine,
				Decoder:  decoder,
			})
			if err != nil {
				t.Fatal(err)
			}
			if sim.Code().Rounds != 5 {
				t.Fatalf("code built with %d rounds, want 5", sim.Code().Rounds)
			}
			res := sim.Clean()
			if res.Shots != 256 {
				t.Fatalf("%s/%s: incomplete campaign %+v", engine, decoder, res)
			}
			if res.Rate() > 0.2 {
				t.Fatalf("%s/%s: 5-round clean campaign at default p errs %.2f", engine, decoder, res.Rate())
			}
		}
	}
	if _, err := NewSimulator(Options{
		Code:     CodeSpec{Family: FamilyXXZZ, DZ: 3, DX: 3, Rounds: 1},
		Topology: "mesh",
	}); err == nil {
		t.Fatal("1-round spec accepted")
	}
}

func TestSimulatorRoundsDefault(t *testing.T) {
	sim, err := NewSimulator(Options{
		Code:     CodeSpec{Family: FamilyXXZZ, DZ: 3, DX: 3},
		Topology: "mesh",
	})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Code().Rounds != 2 {
		t.Fatalf("default rounds = %d, want the paper's 2", sim.Code().Rounds)
	}
}
