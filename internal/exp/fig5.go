package exp

import (
	"fmt"
	"strconv"

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

// fig5 reproduces Figure 5: the logical-error landscape of the
// distance-(5,1) repetition code (on a 5x2 lattice) and the
// distance-(3,3) XXZZ code (on a 5x4 lattice) over the intrinsic
// physical error rate and the radiation fault's time evolution, with the
// strike rooted at qubit index 2.
func fig5(cfg Config) (*Table, error) {
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
		t.Add(m.code.Name, m.phys, m.sample, m.rootProb, pct(rate))
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
	return t, nil
}

// fig5Row is the coordinates of one Figure 5 row: its code, its
// temporal sample and the row's phys_rate, sample and root_prob cells.
type fig5Row struct {
	code                   *qec.Code
	k                      int
	phys, sample, rootProb string
}

// fig5Specs returns Figure 5's specs, one per (code, phys rate, temporal
// sample) in row order, with each row's coordinates. Each phys rate,
// sample and root probability is formatted once, as "%.0e", "%d" and
// "%.4f" write it, and shared by the keys and cells of its rows.
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
		{rep, mesh5x2()},
		{xxzz, mesh5x4()},
	}
	rates := Fig5PhysicalRates()
	physCells := make([]string, len(rates))
	for i, phys := range rates {
		physCells[i] = strconv.FormatFloat(phys, 'e', 0, 64)
	}
	samples := noise.TemporalSamples(cfg.NS)
	sampleCells := make([]string, len(samples))
	probCells := make([]string, len(samples))
	for k, rootProb := range samples {
		sampleCells[k] = strconv.Itoa(k)
		probCells[k] = strconv.FormatFloat(rootProb, 'f', 4, 64)
	}
	specs := make([]pointSpec, 0, len(jobs)*len(rates)*len(samples))
	meta := make([]fig5Row, 0, cap(specs))
	for ji, j := range jobs {
		p, err := prepare(j.code, j.topo)
		if err != nil {
			return nil, nil, err
		}
		// A sample's strike is the same event at every phys rate.
		events := make([]*noise.RadiationEvent, len(samples))
		for k, rootProb := range samples {
			events[k] = p.strikeAt(Fig5Root, rootProb, true)
		}
		for pi, phys := range rates {
			sub := cfg
			sub.P = phys
			prefix := "fig5/" + j.code.Name + "/p" + physCells[pi] + "/t"
			for k := range samples {
				seed := cfg.Seed + uint64(ji*1000003+pi*1009+k*13)
				specs = append(specs, p.spec(prefix+sampleCells[k], sub, events[k], seed))
				meta = append(meta, fig5Row{j.code, k, physCells[pi], sampleCells[k], probCells[k]})
			}
		}
	}
	return specs, meta, nil
}
