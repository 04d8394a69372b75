package exp

import (
	"fmt"

	"radqec/internal/arch"
	"radqec/internal/qec"
	"radqec/internal/stats"
	"radqec/internal/sweep"
)

// Fig8RepTopologies lists the architectures the distance-(11,1)
// repetition code (22 qubits) is transpiled onto in Figure 8a.
func Fig8RepTopologies() []arch.Topology {
	return []arch.Topology{
		arch.Linear(22),
		arch.Mesh(5, 6),
		arch.Brooklyn(),
		arch.Cairo(),
		arch.Cambridge(),
	}
}

// Fig8XXZZTopologies lists the architectures the distance-(3,3) XXZZ
// code (18 qubits) is transpiled onto in Figure 8b.
func Fig8XXZZTopologies() []arch.Topology {
	return []arch.Topology{
		arch.Complete(18),
		arch.Linear(18),
		arch.Mesh(5, 4),
		arch.Almaden(),
		arch.Brooklyn(),
		arch.Cambridge(),
		arch.Johannesburg(),
	}
}

// fig8Cell is one (code, architecture) cell of Figure 8: the prepared
// circuit and the median logical error per strike root.
type fig8Cell struct {
	p       *prepared
	arch    string
	roots   []int
	medians []float64
}

// fig8Grid measures Figure 8's grid — the distance-(11,1) repetition
// code on Fig8RepTopologies and the distance-(3,3) XXZZ code on
// Fig8XXZZTopologies, one medianOverRoots sweep per cell at the cell's
// own seed. Fig8 and Fig8Summary render the same cells.
func fig8Grid(cfg Config) ([]fig8Cell, []sweep.Result, error) {
	rep, err := cfg.repetition(11)
	if err != nil {
		return nil, nil, err
	}
	xxzz, err := cfg.xxzz(3, 3)
	if err != nil {
		return nil, nil, err
	}
	jobs := []struct {
		code  *qec.Code
		topos []arch.Topology
	}{
		{rep, Fig8RepTopologies()},
		{xxzz, Fig8XXZZTopologies()},
	}
	var cells []fig8Cell
	var all []sweep.Result
	for ji, j := range jobs {
		for ti, topo := range j.topos {
			p, err := prepare(j.code, topo)
			if err != nil {
				return nil, nil, err
			}
			roots, medians, results := p.medianOverRoots(cfg, cfg.Seed+uint64(ji*5+ti)*179424673)
			all = append(all, results...)
			cells = append(cells, fig8Cell{p: p, arch: topo.Name, roots: roots, medians: medians})
		}
	}
	return cells, all, nil
}

// Fig8 reproduces Figure 8: per-root-injection-point median logical
// error (over the fault's full time evolution) across hardware
// architectures, for the distance-(11,1) repetition code and the
// distance-(3,3) XXZZ code. Each used physical qubit acts as the strike
// root once; the node value is the median logical error over the ns
// temporal samples.
func Fig8(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	t := &Table{
		Title: "Figure 8: logical error rate by corrupted qubit on different architectures",
		Header: []string{
			"code", "architecture", "swaps", "phys_qubit", "role", "median_logical_error",
		},
	}
	cells, all, err := fig8Grid(cfg)
	if err != nil {
		return nil, err
	}
	for _, c := range cells {
		name, swaps := c.p.code.Name, c.p.tr.SwapCount
		for i, root := range c.roots {
			role := c.p.tr.RoleOf(root)
			if role == "" {
				role = "route"
			}
			t.Add(name, c.arch, fmt.Sprintf("%d", swaps), fmt.Sprintf("%d", root), role, pct(c.medians[i]))
		}
		lo, hi := stats.MinMax(c.medians)
		t.Notes = append(t.Notes, fmt.Sprintf(
			"%s on %s: median %s, range [%s, %s], %d SWAPs",
			name, c.arch, pct(stats.Median(c.medians)), pct(lo), pct(hi), swaps))
	}
	noteAdaptive(t, cfg, all)
	return t, nil
}

// Fig8Summary aggregates Fig8 to one row per (code, architecture):
// the min/median/max of the per-root medians, plus routing overhead.
func Fig8Summary(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	t := &Table{
		Title: "Figure 8 (summary): architecture comparison",
		Header: []string{
			"code", "architecture", "swaps", "two_qubit_gates", "min", "median", "max",
		},
	}
	cells, all, err := fig8Grid(cfg)
	if err != nil {
		return nil, err
	}
	for _, c := range cells {
		lo, hi := stats.MinMax(c.medians)
		t.Add(c.p.code.Name, c.arch,
			fmt.Sprintf("%d", c.p.tr.SwapCount),
			fmt.Sprintf("%d", c.p.tr.Circuit.CountTwoQubit()),
			pct(lo), pct(stats.Median(c.medians)), pct(hi))
	}
	noteAdaptive(t, cfg, all)
	return t, nil
}
