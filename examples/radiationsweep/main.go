// Radiationsweep compares how the repetition and XXZZ code families ride
// out the same radiation event, sweeping the intrinsic physical error
// rate like the paper's Figure 5 landscape. Each cell is one point of
// an exp.Simulator, the experiment layer's façade.
package main

import (
	"flag"
	"fmt"
	"log"

	"radqec/internal/exp"
)

func main() {
	engine := flag.String("engine", exp.EngineBatch, "simulation engine: batch or tableau")
	decoder := flag.String("decoder", exp.DecoderMWPM, "syndrome decoder: mwpm or uf")
	flag.Parse()
	// Check the campaign flags up front, so a typo fails before the
	// sweep starts.
	names := exp.Config{Engine: *engine, Decoder: *decoder}.Defaults()
	if err := names.Validate(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("engine %s, decoder %s\n", names.Engine, names.Decoder)
	codes := []struct {
		family string
		dZ, dX int
	}{
		{exp.FamilyRepetition, 5, 1},
		{exp.FamilyXXZZ, 3, 3},
	}
	physRates := []float64{1e-8, 1e-5, 1e-3, 1e-2, 1e-1}

	fmt.Println("logical error at the moment of impact (strike on qubit 2, full spread)")
	fmt.Printf("%-12s", "phys rate")
	for _, c := range codes {
		fmt.Printf("  %s-(%d,%d)", c.family, c.dZ, c.dX)
	}
	fmt.Println()
	for _, p := range physRates {
		fmt.Printf("%-12.0e", p)
		for _, c := range codes {
			sim, err := exp.NewSimulator(exp.Config{
				P:       p,
				Shots:   2000,
				Seed:    42,
				Engine:  *engine,
				Decoder: *decoder,
			}, c.family, c.dZ, c.dX, "mesh")
			if err != nil {
				log.Fatal(err)
			}
			res := sim.StrikeAtImpact(2, true)
			fmt.Printf("  %13.2f%%", 100*res.Rate())
		}
		fmt.Println()
	}
	fmt.Println("\nThe radiation floor persists even at p=1e-8: no amount of gate")
	fmt.Println("fidelity rescues a surface code from a particle strike (Observation I).")
}
