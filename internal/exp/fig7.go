package exp

import (
	"fmt"

	"radqec/internal/qec"
	"radqec/internal/rng"
	"radqec/internal/stats"
)

// Fig7SubgraphSamples is how many connected subgraphs are sampled per
// corruption size.
const Fig7SubgraphSamples = 12

// fig7 reproduces Figure 7: the logical error caused by k simultaneous
// erasure (reset) faults — injected into connected size-k subgraphs of
// the 5x6 lattice, median across subgraphs — compared against the
// logical error of a single *spreading* radiation fault at t=0 (the red
// line of the figure), for the distance-(15,1) repetition code and the
// distance-(3,3) XXZZ code.
func fig7(cfg Config) (*Table, error) {
	t := &Table{
		Title: "Figure 7: correlated spread vs multiple independent erasures (t=0)",
		Header: []string{
			"code", "corrupted_qubits", "mean_logical_error", "median_logical_error", "spreading_fault_reference",
		},
	}
	type job struct {
		code *qec.Code
		ks   []int
	}
	rep, err := cfg.repetition(15)
	if err != nil {
		return nil, err
	}
	xxzz, err := cfg.xxzz(3, 3)
	if err != nil {
		return nil, err
	}
	jobs := []job{
		{rep, []int{1, 10, 11, 15, 16}},
		{xxzz, []int{1, 9, 10, 14, 15}},
	}
	topo := mesh5x6()
	// Emit every campaign of the figure — the per-root spreading
	// references and the sampled size-k erasure subgraphs — as one spec
	// list, then run a single sweep over all of it.
	type group struct {
		job       job
		refCount  int   // spreading-reference specs
		subCounts []int // subgraph specs per corruption size
	}
	var (
		specs  []pointSpec
		groups []group
	)
	for ji, j := range jobs {
		p, err := prepare(j.code, topo)
		if err != nil {
			return nil, err
		}
		g := group{job: j}
		for ri, root := range p.usedRoots() {
			ev := p.strikeAt(root, 1.0, true)
			specs = append(specs, p.spec(
				fmt.Sprintf("fig7/%s/spread/root%d", j.code.Name, root),
				cfg, ev, cfg.Seed+uint64(ji*7+ri)*613))
			g.refCount++
		}
		src := rng.New(cfg.Seed + uint64(ji) + 555)
		for _, k := range j.ks {
			subs := p.sampleUsedSubgraphs(k, Fig7SubgraphSamples, src)
			g.subCounts = append(g.subCounts, len(subs))
			for si, members := range subs {
				ev := subgraphEvent(p.tr.Circuit.NumQubits, members, 1.0)
				seed := cfg.Seed + uint64(ji*31337+k*769+si*97)
				specs = append(specs, p.spec(
					fmt.Sprintf("fig7/%s/erase%d/s%d", j.code.Name, k, si), cfg, ev, seed))
			}
		}
		groups = append(groups, g)
	}
	results := runSpecs(cfg, specs)
	off := 0
	for _, g := range groups {
		reference := stats.Median(resultRates(results[off : off+g.refCount]))
		off += g.refCount
		for ki, k := range g.job.ks {
			count := g.subCounts[ki]
			if count == 0 {
				t.Add(g.job.code.Name, fmt.Sprintf("%d", k), "n/a", "n/a (no size-k subgraph)", pct(reference))
				continue
			}
			rates := resultRates(results[off : off+count])
			off += count
			t.Add(g.job.code.Name, fmt.Sprintf("%d", k),
				pct(stats.Mean(rates)), pct(stats.Median(rates)), pct(reference))
		}
	}
	return t, nil
}
