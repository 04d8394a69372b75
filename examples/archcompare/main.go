// Archcompare transpiles the distance-(3,3) XXZZ code onto several
// hardware topologies and reports routing overhead and radiation
// resilience per device, in the spirit of the paper's Figure 8b. Each
// device is one exp.Simulator, the experiment layer's façade.
package main

import (
	"flag"
	"fmt"
	"log"

	"radqec/internal/exp"
	"radqec/internal/stats"
)

func main() {
	engine := flag.String("engine", exp.EngineBatch, "simulation engine: batch or tableau")
	flag.Parse()
	topologies := []string{"complete", "mesh", "almaden", "johannesburg", "cairo", "cambridge", "brooklyn", "linear"}

	fmt.Printf("%-14s %8s %10s %12s %12s\n",
		"architecture", "swaps", "2q gates", "median err", "worst qubit")
	for _, name := range topologies {
		sim, err := exp.NewSimulator(exp.Config{
			Shots:  400,
			Seed:   7,
			NS:     5,
			Engine: *engine,
		}, exp.FamilyXXZZ, 3, 3, name)
		if err != nil {
			log.Fatal(err)
		}
		var medians []float64
		for _, root := range sim.UsedQubits() {
			var rates []float64
			for _, s := range sim.Strike(root) {
				rates = append(rates, s.Rate())
			}
			medians = append(medians, stats.Median(rates))
		}
		_, worst := stats.MinMax(medians)
		fmt.Printf("%-14s %8d %10d %11.2f%% %11.2f%%\n",
			name, sim.Transpiled().SwapCount, sim.Transpiled().Circuit.CountTwoQubit(),
			100*stats.Median(medians), 100*worst)
	}
	fmt.Println("\nDegree-starved devices (linear) pay for the XXZZ code's degree-4")
	fmt.Println("stabilizers with SWAP chains that widen the fault surface")
	fmt.Println("(Observation VIII).")
}
