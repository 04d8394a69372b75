package exp

import (
	"fmt"

	"radqec/internal/noise"
)

// threshold sweeps the intrinsic physical error rate without any
// radiation event, for increasing repetition-code distances. Below the
// circuit-level threshold, larger distances must win — the sanity
// baseline behind the paper's remark that "in absence of
// radiation-induced events all the tested configurations do not present
// output errors", and the contrast that makes Observation I sting:
// radiation errors do NOT fall with distance.
func threshold(cfg Config) (*Table, error) {
	t := &Table{
		Title:  "Baseline: intrinsic-noise-only logical error by distance (no radiation)",
		Header: []string{"phys_rate", "rep-(3,1)", "rep-(7,1)", "rep-(11,1)"},
	}
	distances := []int{3, 7, 11}
	topo := mesh5x6()
	var prepped []*prepared
	for _, d := range distances {
		code, err := cfg.repetition(d)
		if err != nil {
			return nil, err
		}
		p, err := prepare(code, topo)
		if err != nil {
			return nil, err
		}
		prepped = append(prepped, p)
	}
	physRates := []float64{1e-3, 3e-3, 1e-2, 3e-2, 1e-1}
	var specs []pointSpec
	for pi, phys := range physRates {
		for di, p := range prepped {
			sub := cfg
			sub.P = phys
			specs = append(specs, p.spec(
				fmt.Sprintf("threshold/rep-(%d,1)/p%.0e", distances[di], phys),
				sub, noise.NoRadiation(p.tr.Circuit.NumQubits), cfg.Seed+uint64(pi*31+di)))
		}
	}
	results := runSpecs(cfg, specs)
	for pi, phys := range physRates {
		row := []string{fmt.Sprintf("%.0e", phys)}
		for di := range prepped {
			row = append(row, pct(results[pi*len(prepped)+di].Rate()))
		}
		t.Add(row...)
	}
	t.Notes = append(t.Notes,
		"below threshold larger distance suppresses the logical error; radiation (Fig 5) does not enjoy this")
	return t, nil
}
