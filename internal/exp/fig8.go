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

// Fig8 reproduces Figure 8: per-root-injection-point median logical
// error (over the fault's full time evolution) across hardware
// architectures, for the distance-(11,1) repetition code on
// Fig8RepTopologies and the distance-(3,3) XXZZ code on
// Fig8XXZZTopologies. Each used physical qubit acts as the strike root
// once; the node value is the median logical error over the ns temporal
// samples. Each (code, architecture) cell is one medianOverRoots sweep
// at the cell's own seed, and its rows carry the cell's routing
// overhead: SWAPs and two-qubit gates after transpilation.
func Fig8(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	t := &Table{
		Title: "Figure 8: logical error rate by corrupted qubit on different architectures",
		Header: []string{
			"code", "architecture", "swaps", "two_qubit_gates", "phys_qubit", "role", "median_logical_error",
		},
	}
	rep, err := cfg.repetition(11)
	if err != nil {
		return nil, err
	}
	xxzz, err := cfg.xxzz(3, 3)
	if err != nil {
		return nil, err
	}
	jobs := []struct {
		code  *qec.Code
		topos []arch.Topology
	}{
		{rep, Fig8RepTopologies()},
		{xxzz, Fig8XXZZTopologies()},
	}
	var all []sweep.Result
	for ji, j := range jobs {
		for ti, topo := range j.topos {
			p, err := prepare(j.code, topo)
			if err != nil {
				return nil, err
			}
			name := j.code.Name
			roots, medians, results := p.medianOverRoots(cfg, "fig8/"+name+"/"+topo.Name, cfg.Seed+uint64(ji*5+ti)*179424673)
			all = append(all, results...)
			swaps, twoQubit := fmt.Sprintf("%d", p.tr.SwapCount), fmt.Sprintf("%d", p.tr.Circuit.CountTwoQubit())
			for i, root := range roots {
				role := p.tr.RoleOf(root)
				if role == "" {
					role = "route"
				}
				t.Add(name, topo.Name, swaps, twoQubit, fmt.Sprintf("%d", root), role, pct(medians[i]))
			}
			lo, hi := stats.MinMax(medians)
			t.Notes = append(t.Notes, fmt.Sprintf(
				"%s on %s: median %s, range [%s, %s], %s SWAPs",
				name, topo.Name, pct(stats.Median(medians)), pct(lo), pct(hi), swaps))
		}
	}
	noteAdaptive(t, cfg, all)
	return t, nil
}
