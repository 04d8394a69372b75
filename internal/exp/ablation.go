package exp

import (
	"fmt"

	"radqec/internal/arch"
	"radqec/internal/frame"
	"radqec/internal/qec"
	"radqec/internal/stats"
)

// AblationDecoder compares the blossom MWPM decoder, which every other
// experiment decodes with, against union-find and the greedy matching
// baseline under a full-strength strike, quantifying what the optimal
// matcher buys. It is the one place union-find and greedy decode a
// campaign: each column sets its decode function per spec.
func AblationDecoder(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	t := &Table{
		Title:  "Ablation: MWPM (blossom) vs greedy matching decoder",
		Header: []string{"code", "decoder", "logical_error"},
	}
	codes := []*qec.Code{}
	if c, err := cfg.repetition(15); err == nil {
		codes = append(codes, c)
	}
	if c, err := cfg.xxzz(3, 3); err == nil {
		codes = append(codes, c)
	}
	topo := arch.Mesh(5, 6)
	type decoder struct {
		name       string
		decodeTile frame.TileDecodeFunc
	}
	var (
		specs []pointSpec
		names []string
	)
	for ci, code := range codes {
		p, err := prepare(code, topo)
		if err != nil {
			return nil, err
		}
		ev := p.strikeAt(2, 1.0, true)
		// The three decoders read the same campaign at the same seed, so
		// they see identical shot streams and differ only in decoding.
		for _, dec := range []decoder{
			{"blossom", code.DecodeTile},
			{"union-find", code.DecodeUnionFindTile},
			{"greedy", code.DecodeGreedyTile},
		} {
			s := p.spec(fmt.Sprintf("ablation-decoder/%s/%s", code.Name, dec.name),
				cfg, ev, cfg.Seed+uint64(ci))
			s.decodeTile = dec.decodeTile
			specs = append(specs, s)
			names = append(names, dec.name)
		}
	}
	results := runSpecs(cfg, specs)
	for i, r := range results {
		t.Add(codes[i/3].Name, names[i], pct(r.Rate()))
	}
	noteAdaptive(t, cfg, results)
	return t, nil
}

// AblationTemporalSamples sweeps ns, the step-approximation resolution
// of the temporal decay (paper picks 10 as the accuracy/cost trade-off).
func AblationTemporalSamples(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	t := &Table{
		Title:  "Ablation: temporal sample count ns",
		Header: []string{"ns", "mean_logical_error_over_evolution"},
	}
	code, err := cfg.repetition(5)
	if err != nil {
		return nil, err
	}
	p, err := prepare(code, arch.Mesh(5, 2))
	if err != nil {
		return nil, err
	}
	nsValues := []int{2, 5, 10, 20, 40}
	var specs []pointSpec
	for _, ns := range nsValues {
		sub := cfg
		sub.NS = ns
		specs = append(specs, p.evolutionSpecs(
			fmt.Sprintf("ablation-ns/ns%d", ns), sub, Fig5Root, true, cfg.Seed+uint64(ns))...)
	}
	results := runSpecs(cfg, specs)
	off := 0
	for _, ns := range nsValues {
		rates := resultRates(results[off : off+ns])
		off += ns
		t.Add(fmt.Sprintf("%d", ns), pct(stats.Mean(rates)))
	}
	noteAdaptive(t, cfg, results)
	return t, nil
}

// AblationRounds sweeps the number of stabilization rounds: more rounds
// give the decoder more time-like context but also lengthen the
// radiation exposure window.
func AblationRounds(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	t := &Table{
		Title:  "Ablation: stabilization rounds",
		Header: []string{"code", "rounds", "logical_error_at_impact", "two_qubit_gates"},
	}
	topo := arch.Mesh(5, 6)
	rounds := []int{2, 3, 4, 6}
	var (
		specs   []pointSpec
		prepped []*prepared
	)
	for _, r := range rounds {
		code, err := Config{Rounds: r}.repetition(15)
		if err != nil {
			return nil, err
		}
		p, err := prepare(code, topo)
		if err != nil {
			return nil, err
		}
		prepped = append(prepped, p)
		specs = append(specs, p.spec(
			fmt.Sprintf("ablation-rounds/r%d", r), cfg,
			p.strikeAt(12, 1.0, true), cfg.Seed+uint64(r)))
	}
	results := runSpecs(cfg, specs)
	for i, r := range results {
		t.Add(prepped[i].code.Name, fmt.Sprintf("%d", rounds[i]), pct(r.Rate()),
			fmt.Sprintf("%d", prepped[i].tr.Circuit.CountTwoQubit()))
	}
	noteAdaptive(t, cfg, results)
	return t, nil
}

// AblationLayout compares the compact BFS initial layout against the
// trivial identity layout through routing overhead and logical error.
func AblationLayout(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	t := &Table{
		Title:  "Ablation: initial layout strategy (routing overhead)",
		Header: []string{"code", "architecture", "layout", "swaps", "logical_error_at_impact"},
	}
	code, err := cfg.xxzz(3, 3)
	if err != nil {
		return nil, err
	}
	topos := []arch.Topology{arch.Cairo(), arch.Brooklyn()}
	type variant struct {
		topo arch.Topology
		name string
		prep *prepared
	}
	var (
		specs    []pointSpec
		variants []variant
	)
	for ti, topo := range topos {
		for _, strat := range []struct {
			name string
			s    arch.LayoutStrategy
		}{{"compact", arch.LayoutCompact}, {"trivial", arch.LayoutTrivial}} {
			tr, err := arch.TranspileWithLayout(code.Circ, topo, strat.s)
			if err != nil {
				return nil, err
			}
			p := &prepared{code: code, tr: tr, dist: topo.Graph.AllPairsShortestPaths()}
			ev := p.strikeAt(tr.Initial.LogToPhys[2], 1.0, true)
			specs = append(specs, p.spec(
				fmt.Sprintf("ablation-layout/%s/%s", topo.Name, strat.name),
				cfg, ev, cfg.Seed+uint64(ti)*31))
			variants = append(variants, variant{topo, strat.name, p})
		}
	}
	results := runSpecs(cfg, specs)
	for i, r := range results {
		v := variants[i]
		t.Add(code.Name, v.topo.Name, v.name,
			fmt.Sprintf("%d", v.prep.tr.SwapCount), pct(r.Rate()))
	}
	noteAdaptive(t, cfg, results)
	return t, nil
}
