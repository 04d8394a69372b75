package exp

import (
	"math"
	"strings"
	"testing"

	"radqec/internal/arch"
	"radqec/internal/noise"
	"radqec/internal/sweep"
)

// TestSimulatorMatchesFigurePoint: the façade computes a point the way
// the figures do. Each Simulator call counts exactly what runSpecs
// counts for the figure spec of the same event and seed, on the
// registry's own prepared circuit, on both engines — the façade fans
// one call over Workers goroutines, the sweep runs the point in tile-
// aligned batches, and both must merge to the same run.
func TestSimulatorMatchesFigurePoint(t *testing.T) {
	codes := []struct {
		family string
		dZ, dX int
	}{
		{FamilyRepetition, 5, 1},
		{FamilyXXZZ, 3, 3},
	}
	for _, c := range codes {
		for _, engine := range Engines() {
			cfg := Config{Shots: 1100, Seed: 31, NS: 3, Workers: 3, Engine: engine}
			sim, err := NewSimulator(cfg, c.family, c.dZ, c.dX, "mesh")
			if err != nil {
				t.Fatal(err)
			}
			cfg = cfg.Defaults()
			code, err := cfg.repetition(c.dZ)
			if c.family == FamilyXXZZ {
				code, err = cfg.xxzz(c.dZ, c.dX)
			}
			if err != nil {
				t.Fatal(err)
			}
			topo, err := arch.ByName("mesh", code.NumQubits())
			if err != nil {
				t.Fatal(err)
			}
			p, err := prepare(code, topo)
			if err != nil {
				t.Fatal(err)
			}
			if p != sim.prep {
				t.Fatalf("%s-(%d,%d): the façade's prepared circuit is not the registry's", c.family, c.dZ, c.dX)
			}
			n := p.tr.Circuit.NumQubits
			root, members := p.usedRoots()[1], p.usedRoots()[:3]

			var got []sweep.Result
			got = append(got, sim.Clean(), sim.StrikeAtImpact(root, true), sim.StrikeAtImpact(root, false))
			got = append(got, sim.Strike(root)...)
			got = append(got, sim.Erase(members))
			specs := []pointSpec{
				p.spec("clean", cfg, noise.NoRadiation(n), cfg.Seed),
				p.spec("spread", cfg, p.strikeAt(root, 1, true), cfg.Seed),
				p.spec("no-spread", cfg, p.strikeAt(root, 1, false), cfg.Seed),
			}
			specs = append(specs, p.evolutionSpecs("strike", cfg, root, true, cfg.Seed)...)
			specs = append(specs, p.spec("erase", cfg, subgraphEvent(n, members, 1), cfg.Seed))
			want := runSpecs(cfg, specs)

			if len(got) != len(want) {
				t.Fatalf("%s: façade gave %d results, figure specs %d", engine, len(got), len(want))
			}
			var errs int
			for i := range want {
				if got[i].Counts != want[i].Counts || got[i].CILo != want[i].CILo || got[i].CIHi != want[i].CIHi {
					t.Errorf("%s-(%d,%d) %s %s: façade %+v, figure point %+v",
						c.family, c.dZ, c.dX, engine, specs[i].key, got[i], want[i])
				}
				errs += want[i].Errors
			}
			if errs == 0 {
				t.Fatalf("%s-(%d,%d) %s: no errors anywhere; the comparison is vacuous", c.family, c.dZ, c.dX, engine)
			}
		}
	}
}

// TestNewSimulatorRejectsOutOfDomain: a config outside the campaign
// domain is NewSimulator's error naming the field, never a simulator
// whose first call panics. A negative Rounds is one of them: only zero
// means the default.
func TestNewSimulatorRejectsOutOfDomain(t *testing.T) {
	for _, tc := range []struct {
		field string
		cfg   Config
	}{
		{"p", Config{P: 2}},
		{"p", Config{P: -0.5}},
		{"p", Config{P: math.NaN()}},
		{"ns", Config{NS: MaxNS + 1}},
		{"rounds", Config{Rounds: -1}},
		{"rounds", Config{Rounds: MaxRounds + 1}},
		{"workers", Config{Workers: -1}},
	} {
		sim, err := NewSimulator(tc.cfg, FamilyRepetition, 3, 1, "mesh")
		if err == nil || !strings.HasPrefix(err.Error(), tc.field+" ") {
			t.Errorf("NewSimulator with %s out of domain: simulator built %v, err %v; want an error naming %s",
				tc.field, sim != nil, err, tc.field)
		}
	}
}
