// Quickstart: build a distance-5 repetition code, transpile it onto a
// mesh device, strike physical qubit 2 with a radiation event and report
// the post-decoding logical error rate per temporal sample.
//
// The simulator is the experiment layer's façade: the code and its
// routed circuit come from the same registry the radqec CLI uses, and
// empty engine and decoder names take the same exp.Config.Defaults, so
// the default run rides the bit-parallel batch engine exactly like the
// CLI does; -engine tableau runs the exact oracle.
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
	decoder := flag.String("decoder", exp.DecoderMWPM, "syndrome decoder: mwpm or uf")
	rounds := flag.Int("rounds", 2, "stabilization rounds (>= 2)")
	flag.Parse()

	cfg := exp.Config{
		Shots:   2000,
		Seed:    1,
		Rounds:  *rounds,
		Engine:  *engine,
		Decoder: *decoder,
	}.Defaults()
	sim, err := exp.NewSimulator(cfg, exp.FamilyRepetition, 5, 1, "mesh")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("code:", sim.Code())
	fmt.Printf("engine: %s (resolved from %q), decoder: %s\n", cfg.Engine, *engine, cfg.Decoder)
	fmt.Println("device qubits:", sim.NumPhysicalQubits(),
		"routing SWAPs:", sim.Transpiled().SwapCount)

	clean := sim.Clean()
	fmt.Printf("intrinsic noise only: %.2f%% logical error\n", 100*clean.Rate())

	evo := sim.Strike(2) // particle impact on physical qubit 2
	fmt.Println("\nradiation strike at qubit 2 (full spatial spread):")
	rates := make([]float64, len(evo))
	for k, s := range evo {
		rates[k] = s.Rate()
		fmt.Printf("  sample %2d: %6.2f%% logical error  (95%% CI %5.2f%%-%5.2f%%)\n",
			k, 100*s.Rate(), 100*s.CILo, 100*s.CIHi)
	}
	fmt.Printf("\noverall over the event: %.2f%% (median %.2f%%)\n",
		100*stats.Mean(rates), 100*stats.Median(rates))
}
