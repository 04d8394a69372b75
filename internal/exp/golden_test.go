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
		{"fig6", Fig6, EngineBatch, 0, "c96fa7fb3ea6fb2e4ea52c117a54a06ede69973d615f3227331a27db2576a762"},
		// No fig7/frame row: the scalar frame engine is no longer an -engine value.
		{"fig7/tableau", Fig7, EngineTableau, 256, "825b4184c2bb229790958813e8016758d220637d85c7cad2d1d156ab3b8a98e6"},
		{"memory", Memory, EngineBatch, 0, "6501078d3c6384019a36424d71b43a21039e586de06e24e7df3beff292ffdac6"},
		{"ablation-decoder", AblationDecoder, EngineBatch, 0, "b0455718f699062e736cfa9ed89acd95e229b43bbb619daafc45197d537b8815"},
		// Blossom, union-find and greedy on the tableau engine, recorded
		// at 15fc049, while that engine still decoded through a scalar
		// path of its own.
		{"ablation-decoder/tableau", AblationDecoder, EngineTableau, 256, "5681868430351244584ec5195130e80079dcbb09ecbaf047b74e253d12bb4ad8"},
		{"fig5", Fig5, EngineBatch, 0, goldenFig5},
		{"fig7", Fig7, EngineBatch, 0, "56b195874dff391e19dfdd6890ae4cc6e1329dc2e3b57476ca4fc360e90a8b3e"},
		{"fig8", Fig8, EngineBatch, 512, "5864a79fbc80a01913e56d4e1befae00b975ee1155772f09674ff272f1a3a7d0"},
		{"threshold", Threshold, EngineBatch, 0, "45d692233dd88421aa73901ff8f6b7fa767fcb1db0b403a788af672bfde0901b"},
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
const goldenFig5 = "6c4b958680c1da3b59b3b324a4d9f2775dce52540b398e6ae2f8992a1c3db583"

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
// both alone. The first was recorded at ceb1e49 plus the regime rule
// (fingerprintVersion 2); the rest at 75793d0, while the address was
// still the generic marshal -> untyped decode -> re-marshal -> SHA-256
// (canonicalHash in fingerprint_test.go), one per branch of the direct
// encoder that replaced it: an all-zero event (what threshold emits),
// no event at all (the omitted key), ci and max_shots present, the
// other engine and decoder names, and a 65-entry event with decayed
// probabilities on both sides of the 'e' float format.
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
	oracle.Engine, oracle.Decoder = EngineTableau, DecoderUF
	low.P = 1e-7
	for _, g := range []struct {
		name string
		cfg  Config
		spec pointSpec
		want string
	}{
		{"strike", base, mesh.spec("golden/rep-(3,1)", base, mesh.strikeAt(Fig5Root, 0.25, true), 42),
			"ef02ce5640c1a520311b758a52ba04d7c21f1cbca53f00ec59bd9aeac7ae4d0e"},
		{"threshold", base, threshold.spec("threshold/rep-(7,1)/p1e-02", base,
			noise.NoRadiation(threshold.tr.Circuit.NumQubits), 64),
			"ed4b6b1cded81715861a139aa903e18462baa640a31ae8522ef4dad59a40784f"},
		{"no-event", low, mesh.spec("golden/none", low, nil, 1<<63+5),
			"adca09d26778bc974fca2b7e152929b3a6b11d208de6d3753686ecfb85a146f9"},
		{"adaptive", adaptive, mesh.spec("golden/adaptive", adaptive, mesh.strikeAt(Fig5Root, 1, false), 7),
			"1052ad5d47d2b6e9fd902689dc01b901d990b32fe9ab2f0742ba170c7dd5dfa6"},
		{"tableau-uf", oracle, mesh.spec("golden/oracle", oracle, mesh.strikeAt(Fig5Root, 0.25, true), 42),
			"15717543c8763e04deebfc08432acf33094305abb0db07cbb9618ab9e1e6a2e7"},
		{"brooklyn", base, brooklyn.spec("golden/brooklyn", base, brooklyn.strikeAt(31, 1e-4, true), 42),
			"4eb3a70a50414166fd2be0374f9cad908f8e377b20456862577b4b9fedc02a0e"},
	} {
		if got := g.spec.fingerprint(g.cfg); got != g.want {
			t.Errorf("%s: fingerprint of the fixed spec is %s, recorded %s (fingerprintVersion %d)",
				g.name, got, g.want, fingerprintVersion)
		}
	}
}
