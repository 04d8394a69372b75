package exp

import (
	"fmt"

	"radqec/internal/noise"
)

// fig3 reproduces Figure 3: the temporal decay T(t) = e^{-10t} of the
// radiation-induced fault and its ns-sample step approximation T̂(t).
// The curve is closed-form, so unlike Figures 5-8 there is no campaign
// to sweep: the table tabulates the model directly and Config.CI has no
// effect.
func fig3(cfg Config) (*Table, error) {
	t := &Table{
		Title:  "Figure 3: temporal decay of the radiation-induced fault",
		Header: []string{"t", "T(t)", "That(t)"},
	}
	const points = 50
	for i := 0; i <= points; i++ {
		tt := float64(i) / points
		t.Add(
			fmt.Sprintf("%.3f", tt),
			fmt.Sprintf("%.6f", noise.Temporal(tt)),
			fmt.Sprintf("%.6f", noise.TemporalStep(tt, cfg.NS)),
		)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("gamma=%.0f, ns=%d equidistant samples; spike of 100%% at impact", noise.Gamma, cfg.NS))
	return t, nil
}

// fig4 reproduces Figure 4: the spatial decay S(d) = 1/(d+1)^2 of the
// deposited charge over architecture-graph distance from the root impact
// point, with the 100% peak at distance zero. Like fig3 it is
// closed-form — no sweep campaign behind it.
func fig4(Config) (*Table, error) {
	t := &Table{
		Title:  "Figure 4: spatial decay of the radiation-induced fault",
		Header: []string{"distance", "S(d)"},
	}
	for d := 0; d <= 10; d++ {
		t.Add(fmt.Sprintf("%d", d), fmt.Sprintf("%.6f", noise.Spatial(d)))
	}
	t.Notes = append(t.Notes, "S(d)=n^2/(d+n)^2 with n=1; distances are architecture-graph hops")
	return t, nil
}
