// Logicallayer demonstrates the paper's future-work direction: taking
// the post-QEC logical error rates measured at the physical level and
// propagating them through a logical program. Five surface-code patches
// prepare a logical GHZ state while a radiation strike hits one patch
// and spreads to its neighbours. The physical campaign runs on
// exp.Simulator, the experiment layer's façade.
package main

import (
	"flag"
	"fmt"
	"log"

	"radqec/internal/exp"
	"radqec/internal/logical"
)

func main() {
	engine := flag.String("engine", exp.EngineBatch, "simulation engine: batch or tableau")
	flag.Parse()
	// Step 1: extract the per-patch fault model from a physical-level
	// campaign on the XXZZ-(3,3) code.
	sim, err := exp.NewSimulator(exp.Config{
		Shots:  2000,
		Seed:   1,
		Engine: *engine,
	}, exp.FamilyXXZZ, 3, 3, "mesh")
	if err != nil {
		log.Fatal(err)
	}
	impact := sim.StrikeAtImpact(2, true).Rate()
	residual := sim.Clean().Rate()
	fmt.Printf("patch model from physical campaign: impact %.2f%%, residual %.3f%%\n\n",
		100*impact, 100*residual)

	// Step 2: run the logical GHZ workload with that model, once with no
	// strike and once per struck patch.
	inj, err := logical.NewInjector(logical.PatchModel{LogicalErrorAtImpact: impact, IdleError: residual})
	if err != nil {
		log.Fatal(err)
	}
	const patches = 5
	ghz := logical.GHZCircuit(patches)
	failure := func(in *logical.Injector) float64 {
		camp := &logical.Campaign{Injector: in, Circuit: ghz, Accept: logical.GHZAccept}
		shots, failures := camp.RunFrom(7, 0, 4000)
		return float64(failures) / float64(shots)
	}

	fmt.Printf("no strike:          GHZ failure %.2f%%\n", 100*failure(inj))
	for struck := 0; struck < patches; struck++ {
		dist := make([]int, patches)
		for q := range dist {
			dist[q] = max(q-struck, struck-q)
		}
		fmt.Printf("strike on patch %d:  GHZ failure %.2f%%\n", struck, 100*failure(inj.Struck(dist)))
	}
	fmt.Println("\nA strike on any patch of the logical program is catastrophic for")
	fmt.Println("entangled workloads: the logical layer inherits the physical layer's")
	fmt.Println("spatial correlation.")
}
