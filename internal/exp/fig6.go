package exp

import (
	"fmt"

	"radqec/internal/arch"
	"radqec/internal/qec"
	"radqec/internal/stats"
)

// Fig6 reproduces Figure 6: the criticality of a single non-spreading
// erasure (reset) at t=0 by code distance, for the repetition family
// (3,1)..(15,1) and the XXZZ family (1,3),(3,1),(3,3),(3,5),(5,3). Each
// code is transpiled onto the 5x6 reference lattice; every used physical
// qubit serves as a root once and the median logical error across roots
// is reported, mirroring the paper's hypernode-median protocol.
func Fig6(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	t := &Table{
		Title: "Figure 6: logical error criticality by code distance (single erasure, t=0, no spread)",
		Header: []string{
			"family", "distance", "qubits", "median_logical_error", "min", "max", "median_raw_readout_error",
		},
	}
	type entry struct {
		family string
		code   *qec.Code
	}
	var entries []entry
	for _, d := range qec.RepetitionDistances() {
		c, err := cfg.repetition(d)
		if err != nil {
			return nil, err
		}
		entries = append(entries, entry{"repetition", c})
	}
	for _, dd := range qec.XXZZDistances() {
		c, err := cfg.xxzz(dd[0], dd[1])
		if err != nil {
			return nil, err
		}
		entries = append(entries, entry{"xxzz", c})
	}
	topo := arch.Mesh(5, 6)
	// Per entry and per root, one decoded spec and one raw-readout spec;
	// the whole family × root grid runs as a single sweep.
	var (
		specs      []pointSpec
		rootCounts []int
	)
	for ei, e := range entries {
		p, err := prepare(e.code, topo)
		if err != nil {
			return nil, err
		}
		roots := p.usedRoots()
		rootCounts = append(rootCounts, len(roots))
		for ri, root := range roots {
			ev := p.strikeAt(root, 1.0, false) // erasure: no spatial spread
			seed := cfg.Seed + uint64(ei*99991+ri*31)
			key := fmt.Sprintf("fig6/%s/root%d", e.code.Name, root)
			specs = append(specs, p.spec(key+"/"+DecoderMWPM, cfg, ev, seed))
			raw := p.spec(key+"/raw", cfg, ev, seed+1)
			raw.decodeTile = e.code.RawLogicalTile
			specs = append(specs, raw)
		}
	}
	results := runSpecs(cfg, specs)
	off := 0
	for ei, e := range entries {
		block := results[off : off+2*rootCounts[ei]]
		off += len(block)
		rates := make([]float64, 0, len(block)/2)
		rawRates := make([]float64, 0, len(block)/2)
		for i := 0; i < len(block); i += 2 {
			rates = append(rates, block[i].Rate())
			rawRates = append(rawRates, block[i+1].Rate())
		}
		lo, hi := stats.MinMax(rates)
		t.Add(e.family,
			fmt.Sprintf("(%d,%d)", e.code.DZ, e.code.DX),
			fmt.Sprintf("%d", e.code.NumQubits()),
			pct(stats.Median(rates)), pct(lo), pct(hi),
			pct(stats.Median(rawRates)))
	}
	t.Notes = append(t.Notes,
		"median over every used physical qubit acting as the erasure root once",
		"raw readout = uncorrected ancilla parity bit (no decoding)")
	noteAdaptive(t, cfg, results)
	return t, nil
}
