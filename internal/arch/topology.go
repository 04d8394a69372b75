// Package arch models quantum-computer hardware topologies (architecture
// graphs) and transpiles logical circuits onto them. The architecture
// graph serves two roles in the radiation study: it constrains which
// qubit pairs can interact (forcing SWAP insertion, Section V-D), and its
// shortest-path metric drives the spatial damping S(d) of a particle
// strike (Section III-B).
package arch

import (
	"fmt"

	"radqec/internal/graph"
)

// Topology is a named architecture graph.
type Topology struct {
	Name  string
	Graph *graph.Graph
}

// Linear returns the 1-D chain topology on n qubits.
func Linear(n int) Topology {
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return Topology{Name: fmt.Sprintf("linear-%d", n), Graph: g}
}

// Mesh returns the w x h bidimensional lattice. The paper's reference
// architecture is the 5x6 mesh; Figure 5 uses 5x2 (repetition) and 5x4
// (XXZZ) sub-lattices.
func Mesh(w, h int) Topology {
	if w <= 0 || h <= 0 {
		panic("arch: mesh dimensions must be positive")
	}
	g := graph.New(w * h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := y*w + x
			if x+1 < w {
				g.AddEdge(v, v+1)
			}
			if y+1 < h {
				g.AddEdge(v, v+w)
			}
		}
	}
	return Topology{Name: fmt.Sprintf("mesh-%dx%d", w, h), Graph: g}
}

// Complete returns the all-to-all topology on n qubits (no routing ever
// needed; the idealised upper bound of Section V-D).
func Complete(n int) Topology {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	return Topology{Name: fmt.Sprintf("complete-%d", n), Graph: g}
}

// fromEdges builds a topology from an explicit edge list.
func fromEdges(name string, n int, edges [][2]int) Topology {
	g := graph.New(n)
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	return Topology{Name: name, Graph: g}
}

// ByName returns the named topology sized for at least minQubits.
// Recognised names: linear, mesh (5x6 unless minQubits forces more),
// complete, almaden, johannesburg, cairo, cambridge, brooklyn.
func ByName(name string, minQubits int) (Topology, error) {
	switch name {
	case "linear":
		return Linear(minQubits), nil
	case "mesh":
		w, h := 5, 6
		for w*h < minQubits {
			h++
		}
		return Mesh(w, h), nil
	case "complete":
		return Complete(minQubits), nil
	case "almaden":
		t := Almaden()
		return t, checkSize(t, minQubits)
	case "johannesburg":
		t := Johannesburg()
		return t, checkSize(t, minQubits)
	case "cairo":
		t := Cairo()
		return t, checkSize(t, minQubits)
	case "cambridge":
		t := Cambridge()
		return t, checkSize(t, minQubits)
	case "brooklyn":
		t := Brooklyn()
		return t, checkSize(t, minQubits)
	default:
		return Topology{}, fmt.Errorf("arch: unknown topology %q", name)
	}
}

func checkSize(t Topology, minQubits int) error {
	if t.Graph.N() < minQubits {
		return fmt.Errorf("arch: topology %s has %d qubits, need %d", t.Name, t.Graph.N(), minQubits)
	}
	return nil
}
