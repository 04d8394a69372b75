package exp

import (
	"fmt"
	"slices"
	"sync"

	"radqec/internal/arch"
	"radqec/internal/qec"
	"radqec/internal/stats"
)

// Fig8RepTopologies lists the architectures the distance-(11,1)
// repetition code (22 qubits) is transpiled onto in Figure 8a.
func Fig8RepTopologies() []arch.Topology { return slices.Clone(fig8RepTopologies()) }

// Fig8XXZZTopologies lists the architectures the distance-(3,3) XXZZ
// code (18 qubits) is transpiled onto in Figure 8b.
func Fig8XXZZTopologies() []arch.Topology { return slices.Clone(fig8XXZZTopologies()) }

// The two lists fig8 runs, built once; the exported accessors hand out
// copies.
var (
	fig8RepTopologies = sync.OnceValue(func() []arch.Topology {
		return []arch.Topology{arch.Linear(22), mesh5x6(), brooklyn(), cairo(), cambridge()}
	})
	fig8XXZZTopologies = sync.OnceValue(func() []arch.Topology {
		return []arch.Topology{
			arch.Complete(18), arch.Linear(18), mesh5x4(), arch.Almaden(), brooklyn(), cambridge(), arch.Johannesburg(),
		}
	})
)

// fig8 reproduces Figure 8: per-root-injection-point median logical
// error (over the fault's full time evolution) across hardware
// architectures, for the distance-(11,1) repetition code on
// Fig8RepTopologies and the distance-(3,3) XXZZ code on
// Fig8XXZZTopologies. Each used physical qubit acts as the strike root
// once; the node value is the median logical error over the ns temporal
// samples. Each (code, architecture) cell is one medianOverRoots sweep
// at the cell's own seed, and its rows carry the cell's routing
// overhead: SWAPs and two-qubit gates after transpilation.
func fig8(cfg Config) (*Table, error) {
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
		{rep, fig8RepTopologies()},
		{xxzz, fig8XXZZTopologies()},
	}
	for ji, j := range jobs {
		for ti, topo := range j.topos {
			p, err := prepare(j.code, topo)
			if err != nil {
				return nil, err
			}
			name := j.code.Name
			roots, medians := p.medianOverRoots(cfg, "fig8/"+name+"/"+topo.Name, cfg.Seed+uint64(ji*5+ti)*179424673)
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
	return t, nil
}
