package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"radqec/internal/arch"
	"radqec/internal/noise"
	"radqec/internal/qec"
)

// tableHash is the SHA-256 of a table's title, header, rows and notes,
// one line each with tab-separated cells.
func tableHash(tab *Table) string {
	var sb strings.Builder
	sb.WriteString(tab.Title)
	sb.WriteByte('\n')
	sb.WriteString(strings.Join(tab.Header, "\t"))
	sb.WriteByte('\n')
	for _, row := range tab.Rows {
		sb.WriteString(strings.Join(row, "\t"))
		sb.WriteByte('\n')
	}
	for _, n := range tab.Notes {
		sb.WriteString(n)
		sb.WriteByte('\n')
	}
	sum := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(sum[:])
}

// TestGoldenTablesAcrossCommits pins the byte-identical-tables invariant
// across commits: the other determinism tests compare two runs of one
// build (engines, widths, workers, resume), so a tie-break drift in the
// matcher or a reordered shot stream would pass all of them. Default
// shots unless stated, seed 1, mwpm.
//
// fig6 was recorded at commit 1d10355, before the blossom workspace
// replaced the allocating matcher, and has not moved since. The tableau
// fig7 table was recorded at ceb1e49, before the batched kernel's
// regime rule (noise.LaneSampler) went in: that change does not touch
// the tableau engine, and fig6 — saturating strikes, p = 1 or 0, and 1%
// intrinsic noise on the gap arm with its draw order kept — draws
// exactly what it drew, so both must pass unchanged.
// memory, ablation-decoder, fig5, fig7, fig8 and threshold were
// re-recorded once, on ceb1e49 plus that change (fingerprintVersion 2):
// strike probabilities in (0, 1/32) are now sampled by geometric gaps
// and depolarizing rates >= 1/32 by Bernoulli words, a different draw
// order for the same distribution (the equivalence is pinned by
// TestBatchMatchesScalarOnFig5 in internal/frame and the LaneSampler
// tests in internal/noise). Their earlier values were recorded at 1d10355 and
// 20879a9.
// fig8 was re-recorded once more, on 8baf4f8 plus the change that
// deleted the fig8summary experiment, with no fingerprint bump: fig8
// gained the two_qubit_gates column that experiment used to print, and
// its points, rows and notes are otherwise unchanged.
// fig6, memory, ablation-decoder, fig5, fig7, fig8 and logical were
// re-recorded once more, on e5824de plus the change that compiles a
// probability-1 strike into the batched engine's reference
// (stab.StruckOf, fingerprintVersion 3): every batched point striking
// a superposed site with certainty moved from the collapsed-branch
// approximation to the exact reset (TestStrikesMatchTableau holds those
// points to the tableau). The tableau rows and threshold did not move.
// A change that moves one must say why the tables were allowed to move.
//
// Every hash was recorded by a process that built its codes per
// campaign, so each is a cold table. Here the codes come from the
// process-wide registry, warm from whatever ran before: the list runs
// forwards, then a fig5 at another seed leaves a different campaign's
// syndromes in the memos, then the list runs backwards. Equality both
// times is what "a warm table and a cold one are the same bytes, in any
// order" means.
func TestGoldenTablesAcrossCommits(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size fig6/memory campaigns")
	}
	type golden struct {
		name   string
		run    func(Config) (*Table, error)
		engine string
		shots  int // 0: the experiment's default
		want   string
	}
	list := []golden{
		{"fig6", Fig6, EngineBatch, 0, "1bdb4606f761f35bb1381f3e402ff9667932fd4bfdabcb0e0746bd73c7d772a5"},
		// No fig7/frame row: the scalar frame engine is no longer an -engine value.
		{"fig7/tableau", Fig7, EngineTableau, 256, "825b4184c2bb229790958813e8016758d220637d85c7cad2d1d156ab3b8a98e6"},
		{"memory", Memory, EngineBatch, 0, "cecdb9c07150aed2b7e8df1b72f78b7da15b180177175eb03ec0be376142fc16"},
		{"ablation-decoder", AblationDecoder, EngineBatch, 0, "d9e42805450e43c3205b6cdec17fb1af742e509c4732ad3a04c0632a5f8d0511"},
		// Blossom, union-find and greedy on the tableau engine, recorded
		// at 15fc049, while that engine still decoded through a scalar
		// path of its own.
		{"ablation-decoder/tableau", AblationDecoder, EngineTableau, 256, "5681868430351244584ec5195130e80079dcbb09ecbaf047b74e253d12bb4ad8"},
		{"fig5", Fig5, EngineBatch, 0, goldenFig5},
		{"fig7", Fig7, EngineBatch, 0, "9df1be4c60cf1058ca5a4df7534a3c1310aef2412dcf3e60fa1f99e268567d88"},
		{"fig8", Fig8, EngineBatch, 512, "33998c32a18b7859906845c0f86018c2150e026c82ad700f83e0be5764497665"},
		{"threshold", Threshold, EngineBatch, 0, "45d692233dd88421aa73901ff8f6b7fa767fcb1db0b403a788af672bfde0901b"},
		// Recorded at b2def25, while the logical layer still ran its
		// shots in a loop of its own outside the sweep.
		{"logical", LogicalLayer, EngineBatch, 0, "84330b791dbd76bc1fb3fc8ce37c97e9a5d60866ac37a9f43dccba4f9d18956d"},
		{"logical/tableau", LogicalLayer, EngineTableau, 0, "21169513982a3401b6a97a3f504648e2f8c4368ab1aa6892b3a08d27c0d7f2c1"},
	}
	check := func(g golden, pass string) {
		if raceEnabled && g.engine != EngineBatch {
			return // one deterministic table, ten times slower
		}
		cfg := Config{Seed: 1, Shots: g.shots, Engine: g.engine, Decoder: DecoderMWPM}
		tab, err := g.run(cfg)
		if err != nil {
			t.Fatalf("%s (%s): %v", g.name, pass, err)
		}
		if got := tableHash(tab); got != g.want {
			t.Errorf("%s table moved (%s): sha256 %s, recorded %s", g.name, pass, got, g.want)
		}
	}
	for _, g := range list {
		check(g, "forwards")
	}
	if _, err := Fig5(Config{Seed: 2}); err != nil {
		t.Fatal(err)
	}
	for i := len(list) - 1; i >= 0; i-- {
		check(list[i], "backwards")
	}
}

// goldenFig5 is fig5's table at default shots, seed 1, batch engine,
// mwpm; TestRegistryBounded holds a rebuilt code to it as well.
const goldenFig5 = "fd831774af7301669f62f1c0923dd7857e16168f29b4e4c931f0a9ac4db7b911"

// TestThresholdGapArmCountsAcrossCommits pins, count for count, the
// twelve threshold points whose depolarizing rate is below 1/32: there
// the batched kernel's gap arm keeps the draw order it had before the
// regime rule, so these error counts (recorded at ceb1e49, 20000 shots,
// seed 1) do not move when the p = 0.1 column does.
func TestThresholdGapArmCountsAcrossCommits(t *testing.T) {
	want := map[string]int{
		"threshold/rep-(3,1)/p1e-03": 1, "threshold/rep-(7,1)/p1e-03": 0, "threshold/rep-(11,1)/p1e-03": 0,
		"threshold/rep-(3,1)/p3e-03": 3, "threshold/rep-(7,1)/p3e-03": 0, "threshold/rep-(11,1)/p3e-03": 0,
		"threshold/rep-(3,1)/p1e-02": 45, "threshold/rep-(7,1)/p1e-02": 2, "threshold/rep-(11,1)/p1e-02": 0,
		"threshold/rep-(3,1)/p3e-02": 321, "threshold/rep-(7,1)/p3e-02": 40, "threshold/rep-(11,1)/p3e-02": 6,
	}
	cfg := Config{Seed: 1, Shots: 20000, Engine: EngineBatch, Decoder: DecoderMWPM}
	got := pointCounts(t, Threshold, cfg)
	for key, errors := range want {
		if c, ok := got[key]; !ok || c.Errors != errors || c.Shots != cfg.Shots {
			t.Errorf("%s: %d errors in %d shots, recorded %d in %d", key, c.Errors, c.Shots, errors, cfg.Shots)
		}
	}
}

// TestFingerprintLiteral pins the content addresses of fixed specs as
// literals. The address covers fingerprintVersion, so a change to what
// a cached result means cannot forget the bump silently: it either
// bumps the version and re-records these strings on purpose, or leaves
// both alone. All six were re-recorded at e5824de plus the struck
// reference (fingerprintVersion 3); canonicalHash in
// fingerprint_test.go, the generic marshal -> untyped decode ->
// re-marshal -> SHA-256 the direct encoder replaced, still agrees with
// each. There is one per branch of that encoder: an all-zero event (what threshold emits),
// no event at all (the omitted key), ci and max_shots present, the
// other engine name, and a 65-entry event with decayed probabilities on
// both sides of the 'e' float format.
func TestFingerprintLiteral(t *testing.T) {
	rep := func(d int, topo arch.Topology) *prepared {
		code, err := qec.NewRepetition(d)
		if err != nil {
			t.Fatal(err)
		}
		p, err := prepare(code, topo)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := Config{Shots: 2000, Seed: 1, P: 0.01, NS: 10, Engine: EngineBatch, Decoder: DecoderMWPM}
	mesh := rep(3, arch.Mesh(5, 2))
	threshold := rep(7, arch.Mesh(5, 6))
	brooklyn := rep(5, arch.Brooklyn())
	adaptive, oracle, low := base, base, base
	adaptive.CI, adaptive.MaxShots = 0.01, 50000
	oracle.Engine = EngineTableau
	low.P = 1e-7
	golden := []struct {
		name string
		cfg  Config
		spec pointSpec
		want string
	}{
		{"strike", base, mesh.spec("golden/rep-(3,1)", base, mesh.strikeAt(Fig5Root, 0.25, true), 42),
			"4d88452c94e2a71dafceef6f76e8060c1e985ae2ac31f0a07106c3ae9575215b"},
		{"threshold", base, threshold.spec("threshold/rep-(7,1)/p1e-02", base,
			noise.NoRadiation(threshold.tr.Circuit.NumQubits), 64),
			"4ba7fb78c81fda5cb38797abeb8a7f40049598d9384b3e5a525f68a1cc2fcbe8"},
		{"no-event", low, mesh.spec("golden/none", low, nil, 1<<63+5),
			"7ea69209c23ffde7feda910ef5a596180699d36471e23435997940e4416c5aaf"},
		{"adaptive", adaptive, mesh.spec("golden/adaptive", adaptive, mesh.strikeAt(Fig5Root, 1, false), 7),
			"9e601b729c1e616723939800cb788bce464cc76d05e7615642ce6d1d3bda5989"},
		{"tableau", oracle, mesh.spec("golden/oracle", oracle, mesh.strikeAt(Fig5Root, 0.25, true), 42),
			"aa12209ad00f333ab8d465033827f1ae9677f28aefd4c31fb043e60a19d4edbe"},
		{"brooklyn", base, brooklyn.spec("golden/brooklyn", base, brooklyn.strikeAt(31, 1e-4, true), 42),
			"cceda8d520ba0617d2abdf143893ce7b9a8bb108374a60e9b557ebb5f42b6aee"},
	}
	// Each spec alone, then all six as one campaign, twice: three
	// prepared circuits, and strike and tableau inject the same event
	// through distinct values.
	campaign := newAddresser()
	for pass, a := range []func() *addresser{newAddresser, func() *addresser { return campaign }, func() *addresser { return campaign }} {
		for _, g := range golden {
			fp := g.spec.fingerprint(g.cfg)
			if got := a().address(&fp); got != g.want {
				t.Errorf("%s (pass %d): fingerprint of the fixed spec is %s, recorded %s (fingerprintVersion %d)",
					g.name, pass, got, g.want, fingerprintVersion)
			}
		}
	}
}
