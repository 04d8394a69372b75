package exp

import (
	"fmt"

	"radqec/internal/circuit"
	"radqec/internal/logical"
	"radqec/internal/noise"
	"radqec/internal/sweep"
)

// logicalLayer estimates how post-QEC logical error rates propagate into
// a logical program, the paper's future-work direction (Section VI): a
// five-patch logical GHZ preparation is run with per-patch error rates
// extracted from a physical-level strike campaign on the XXZZ-(3,3)
// code, with the strike spreading across the patch adjacency graph.
// Both layers run as sweep points: the two physical campaigns, then
// every logical workload once struck and once as its no-strike baseline.
func logicalLayer(cfg Config) (*Table, error) {
	t := &Table{
		Title:  "Extension: post-QEC logical-layer fault injection (paper future work)",
		Header: []string{"workload", "struck_patch", "failure_rate", "no_strike_baseline"},
	}
	// Extract the physical-level impact error of one patch.
	code, err := cfg.xxzz(3, 3)
	if err != nil {
		return nil, err
	}
	p, err := prepare(code, mesh5x4())
	if err != nil {
		return nil, err
	}
	results := runSpecs(cfg, []pointSpec{
		p.spec("logical/impact", cfg, p.strikeAt(Fig5Root, 1.0, true), cfg.Seed),
		p.spec("logical/residual", cfg, noise.NoRadiation(p.tr.Circuit.NumQubits), cfg.Seed+1),
	})
	impact, residual := results[0].Rate(), results[1].Rate()
	t.Notes = append(t.Notes, fmt.Sprintf(
		"patch model from xxzz-(3,3) campaign: impact error %s, residual %s",
		pct(impact), pct(residual)))
	base, err := logical.NewInjector(logical.PatchModel{LogicalErrorAtImpact: impact, IdleError: residual})
	if err != nil {
		return nil, err
	}
	var points []sweep.Point
	// add opens a workload's row and appends its two points: struck at
	// patch-graph distances dist from the struck patch, and the baseline.
	add := func(workload, struck string, circ *circuit.Circuit, accept func([]int) bool, dist []int, seed, baseSeed uint64) {
		key := "logical/" + workload + "/struck" + struck
		t.Add(workload, struck)
		points = append(points,
			logicalPoint(key, &logical.Campaign{Injector: base.Struck(dist), Circuit: circ, Accept: accept}, seed),
			logicalPoint(key+"/baseline", &logical.Campaign{Injector: base, Circuit: circ, Accept: accept}, baseSeed))
	}
	// Five logical patches in a line: patch-graph distance |i-j|.
	const patches = 5
	ghz := logical.GHZCircuit(patches)
	for struck := 0; struck < patches; struck++ {
		dist := make([]int, patches)
		for q := range dist {
			dist[q] = max(q-struck, struck-q)
		}
		seed := cfg.Seed + uint64(struck)
		add(fmt.Sprintf("ghz-%d", patches), fmt.Sprint(struck), ghz, logical.GHZAccept, dist, seed, seed+100)
	}
	// Teleportation across three patches, strike on the middle one.
	add("teleport", "1", logical.TeleportCircuit(), logical.TeleportAccept, []int{1, 0, 1}, cfg.Seed+55, cfg.Seed+56)
	// These points run on the logical layer's own tableau, whatever
	// cfg.Engine names.
	if tel := cfg.Telemetry; tel != nil {
		tel.SetEngine("logical")
	}
	layer := runPoints(cfg, points)
	for i, row := range t.Rows {
		t.Rows[i] = append(row, pct(layer[2*i].Rate()), pct(layer[2*i+1].Rate()))
	}
	return t, nil
}

// logicalPoint lowers one logical-layer campaign at one seed onto the
// sweep engine. It carries no content hash, so it is recomputed on every
// run; its shots run on the sweep worker that holds it.
func logicalPoint(key string, camp *logical.Campaign, seed uint64) sweep.Point {
	return sweep.Point{Key: key, Prepare: func() sweep.BatchRunner {
		return func(start, n int) sweep.Counts {
			shots, failures := camp.RunFrom(seed, start, n)
			return sweep.Counts{Shots: shots, Errors: failures}
		}
	}}
}
