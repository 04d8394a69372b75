package exp

import (
	"fmt"
	"sort"

	"radqec/internal/arch"
	"radqec/internal/noise"
	"radqec/internal/qec"
)

// memoryRounds builds the round sweep of the memory experiment: the
// paper's 2-round protocol, a short ladder into the memory regime, the
// code distance itself (the canonical rounds=d memory point), and the
// configured -rounds depth, deduplicated and sorted.
func memoryRounds(cfg Config, d int) []int {
	set := map[int]bool{}
	var out []int
	add := func(r int) {
		if r >= 2 && !set[r] {
			set[r] = true
			out = append(out, r)
		}
	}
	for _, r := range []int{2, 3, 4, 6, 8} {
		add(r)
	}
	add(d)
	add(cfg.Rounds)
	sort.Ints(out)
	return out
}

// Memory is the multi-round memory experiment the space-time
// detector-error model opens up: logical error versus the number of
// stabilization rounds at fixed distance, for both code families. Each
// additional round adds a layer of detectors and a band of time-like
// (measurement-error) edges to the decoding problem, so the intrinsic
// logical error accumulates with depth — the scaling the 2-round paper
// protocol cannot observe — while the radiation column shows how a
// strike's damage dilutes into a longer exposure window.
func Memory(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	t := &Table{
		Title: "Memory: logical error vs stabilization rounds (space-time decoding)",
		Header: []string{
			"family", "code", "rounds", "detectors",
			"logical_error", "logical_error_at_impact",
		},
	}
	type entry struct {
		family string
		build  func(rounds int) (*qec.Code, error)
		d      int
	}
	entries := []entry{
		{"repetition", func(r int) (*qec.Code, error) { return Config{Rounds: r}.repetition(5) }, 5},
		{"repetition", func(r int) (*qec.Code, error) { return Config{Rounds: r}.repetition(9) }, 9},
		{"xxzz", func(r int) (*qec.Code, error) { return Config{Rounds: r}.xxzz(3, 3) }, 3},
	}
	topo := arch.Mesh(5, 6)
	type row struct {
		family string
		code   *qec.Code
		rounds int
	}
	var (
		specs []pointSpec
		rows  []row
	)
	for ei, e := range entries {
		for ri, r := range memoryRounds(cfg, e.d) {
			code, err := e.build(r)
			if err != nil {
				return nil, err
			}
			p, err := prepare(code, topo)
			if err != nil {
				return nil, err
			}
			seed := cfg.Seed + uint64(ei*99991+ri*31)
			key := fmt.Sprintf("memory/%s/r%d", code.Name, r)
			specs = append(specs,
				p.spec(key+"/clean", cfg, noise.NoRadiation(p.tr.Circuit.NumQubits), seed),
				p.spec(key+"/impact", cfg, p.strikeAt(Fig5Root, 1.0, true), seed+1))
			rows = append(rows, row{e.family, code, r})
		}
	}
	results := runSpecs(cfg, specs)
	for i, rw := range rows {
		m := rw.code.DEM()
		t.Add(rw.family, rw.code.Name, fmt.Sprintf("%d", rw.rounds),
			fmt.Sprintf("%d", m.NumStabs*m.Layers),
			pct(results[2*i].Rate()), pct(results[2*i+1].Rate()))
	}
	t.Notes = append(t.Notes,
		"each round adds a detector layer and a time-like (measurement-error) edge band to the decoding graph",
		fmt.Sprintf("decoded with %s over the compiled detector-error model; intrinsic p=%g", DecoderMWPM, cfg.P))
	noteAdaptive(t, cfg, results)
	return t, nil
}
