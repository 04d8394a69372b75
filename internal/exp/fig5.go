package exp

import (
	"fmt"

	"radqec/internal/arch"
	"radqec/internal/noise"
	"radqec/internal/qec"
	"radqec/internal/stats"
)

// Fig5PhysicalRates are the intrinsic physical error rates swept along
// one ground axis of Figure 5 (1e-8 up to 1e-1).
func Fig5PhysicalRates() []float64 {
	return []float64{1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1}
}

// Fig5Root is the paper's deterministic root injection point.
const Fig5Root = 2

// Fig5 reproduces Figure 5: the logical-error landscape of the
// distance-(5,1) repetition code (on a 5x2 lattice) and the
// distance-(3,3) XXZZ code (on a 5x4 lattice) over the intrinsic
// physical error rate and the radiation fault's time evolution, with the
// strike rooted at qubit index 2.
func Fig5(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	t := &Table{
		Title: "Figure 5: logical error landscape (noise x radiation)",
		Header: []string{
			"code", "phys_rate", "sample", "root_prob", "logical_error",
		},
	}
	specs, meta, err := fig5Specs(cfg)
	if err != nil {
		return nil, err
	}
	results := runSpecs(cfg, specs)
	var impactRates []float64
	for i, r := range results {
		m := meta[i]
		rate := r.Rate()
		t.Add(m.code.Name,
			fmt.Sprintf("%.0e", m.phys),
			fmt.Sprintf("%d", m.k),
			fmt.Sprintf("%.4f", m.prob),
			pct(rate))
		if m.k == 0 {
			impactRates = append(impactRates, rate)
		}
		// The per-code impact note closes when its block of rows ends.
		if i+1 == len(results) || meta[i+1].code != m.code {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"%s: mean logical error at impact (root prob 100%%) across phys rates = %s",
				m.code.Name, pct(stats.Mean(impactRates))))
			impactRates = impactRates[:0]
		}
	}
	noteAdaptive(t, cfg, results)
	return t, nil
}

// fig5Row is the coordinates of one Figure 5 row.
type fig5Row struct {
	code *qec.Code
	phys float64
	k    int
	prob float64
}

// fig5Specs returns Figure 5's specs, one per (code, phys rate, temporal
// sample) in row order, with each row's coordinates.
func fig5Specs(cfg Config) ([]pointSpec, []fig5Row, error) {
	rep, err := cfg.repetition(5)
	if err != nil {
		return nil, nil, err
	}
	xxzz, err := cfg.xxzz(3, 3)
	if err != nil {
		return nil, nil, err
	}
	jobs := []struct {
		code *qec.Code
		topo arch.Topology
	}{
		{rep, arch.Mesh(5, 2)},
		{xxzz, arch.Mesh(5, 4)},
	}
	samples := noise.TemporalSamples(cfg.NS)
	var (
		specs []pointSpec
		meta  []fig5Row
	)
	for ji, j := range jobs {
		p, err := prepare(j.code, j.topo)
		if err != nil {
			return nil, nil, err
		}
		for pi, phys := range Fig5PhysicalRates() {
			sub := cfg
			sub.P = phys
			for k, rootProb := range samples {
				ev := p.strikeAt(Fig5Root, rootProb, true)
				seed := cfg.Seed + uint64(ji*1000003+pi*1009+k*13)
				specs = append(specs, p.spec(
					fmt.Sprintf("fig5/%s/p%.0e/t%d", j.code.Name, phys, k), sub, ev, seed))
				meta = append(meta, fig5Row{j.code, phys, k, rootProb})
			}
		}
	}
	return specs, meta, nil
}
