// Quickstart: build a distance-5 repetition code, transpile it onto a
// mesh device, strike physical qubit 2 with a radiation event and report
// the post-decoding logical error rate per temporal sample.
//
// Engine and decoder selection route through the shared resolution
// policy (core.ResolveEngine / core.ResolveDecoder inside the
// simulator), so the default run rides the bit-parallel batch engine
// exactly like the radqec CLI does; -engine tableau runs the exact
// oracle.
package main

import (
	"flag"
	"fmt"
	"log"

	"radqec/internal/core"
)

func main() {
	engine := flag.String("engine", core.EngineBatch, "simulation engine: batch or tableau")
	decoder := flag.String("decoder", core.DecoderMWPM, "syndrome decoder: mwpm or uf")
	rounds := flag.Int("rounds", 2, "stabilization rounds (>= 2)")
	flag.Parse()

	resolved, err := core.ResolveEngine(*engine)
	if err != nil {
		log.Fatal(err)
	}
	sim, err := core.NewSimulator(core.Options{
		Code:     core.CodeSpec{Family: core.FamilyRepetition, DZ: 5, Rounds: *rounds},
		Topology: "mesh",
		Shots:    2000,
		Seed:     1,
		Engine:   *engine,
		Decoder:  *decoder,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("code:", sim.Code())
	fmt.Printf("engine: %s (resolved from %q), decoder: %s\n", resolved, *engine, *decoder)
	fmt.Println("device qubits:", sim.NumPhysicalQubits(),
		"routing SWAPs:", sim.Transpiled().SwapCount)

	clean := sim.Clean()
	fmt.Printf("intrinsic noise only: %.2f%% logical error\n", 100*clean.Rate())

	evo := sim.Strike(2) // particle impact on physical qubit 2
	fmt.Println("\nradiation strike at qubit 2 (full spatial spread):")
	for k, s := range evo.Samples {
		lo, hi := s.CI()
		fmt.Printf("  sample %2d: %6.2f%% logical error  (95%% CI %5.2f%%-%5.2f%%)\n",
			k, 100*s.Rate(), 100*lo, 100*hi)
	}
	fmt.Printf("\noverall over the event: %.2f%% (median %.2f%%)\n",
		100*evo.Overall(), 100*evo.Median())
}
