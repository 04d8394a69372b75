// Spreadstudy contrasts one spatially-correlated radiation fault with
// k independent erasures on the distance-(15,1) repetition code — the
// paper's Figure 7 question: how many simultaneous resets does one
// spreading strike amount to? Both sides run on one exp.Simulator, the
// experiment layer's façade.
package main

import (
	"flag"
	"fmt"
	"log"

	"radqec/internal/exp"
	"radqec/internal/graph"
	"radqec/internal/rng"
	"radqec/internal/stats"
)

func main() {
	engine := flag.String("engine", exp.EngineBatch, "simulation engine: batch or tableau")
	flag.Parse()
	sim, err := exp.NewSimulator(exp.Config{
		Shots:  1000,
		Seed:   3,
		Engine: *engine,
	}, exp.FamilyRepetition, 15, 1, "mesh")
	if err != nil {
		log.Fatal(err)
	}

	// Reference: a single spreading strike at the moment of impact,
	// median over all roots.
	var spreadRates []float64
	for _, root := range sim.UsedQubits() {
		spreadRates = append(spreadRates, sim.StrikeAtImpact(root, true).Rate())
	}
	reference := stats.Median(spreadRates)
	fmt.Printf("single spreading strike (median over roots): %.2f%%\n\n", 100*reference)

	// Correlated k-qubit erasures over connected lattice patches.
	topo := sim.Transpiled().Topo
	src := rng.New(11)
	fmt.Printf("%8s %18s %18s\n", "k", "mean logical err", "median logical err")
	for _, k := range []int{1, 5, 10, 13, 15, 16, 18} {
		subs := sampleSubgraphs(topo.Graph, k, 10, src)
		var rates []float64
		for _, members := range subs {
			rates = append(rates, sim.Erase(members).Rate())
		}
		fmt.Printf("%8d %17.2f%% %17.2f%%\n", k, 100*stats.Mean(rates), 100*stats.Median(rates))
	}
	fmt.Println("\nThe cliff sits just past half the device: correlated faults that")
	fmt.Println("erase a majority of the data qubits defeat any matching decoder")
	fmt.Println("(Observations V and VI).")
}

func sampleSubgraphs(g *graph.Graph, k, count int, src *rng.Source) [][]int {
	return g.SampleConnectedSubgraphs(k, count, src)
}
