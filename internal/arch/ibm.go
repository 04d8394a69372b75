package arch

// This file encodes the coupling maps of the decommissioned IBM devices the
// paper transpiles onto (Section V-D). The maps are reconstructed from
// the devices' published lattice patterns: the 20-qubit "Penguin" grid
// family (Almaden, Johannesburg), the 27-qubit Falcon heavy-hex (Cairo),
// the 28-qubit Cambridge hex lattice, and the 65-qubit Hummingbird
// heavy-hex (Brooklyn). The radiation analysis depends only on the graph
// structure — degree distribution and inter-qubit distances — which these
// reconstructions preserve.

// Almaden returns the 20-qubit IBM Q Almaden coupling map: four rows of
// five qubits with vertical rungs on alternating columns.
func Almaden() Topology {
	return fromEdges("almaden", 20, [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 4},
		{1, 6}, {3, 8},
		{5, 6}, {6, 7}, {7, 8}, {8, 9},
		{5, 10}, {7, 12}, {9, 14},
		{10, 11}, {11, 12}, {12, 13}, {13, 14},
		{11, 16}, {13, 18},
		{15, 16}, {16, 17}, {17, 18}, {18, 19},
	})
}

// Johannesburg returns the 20-qubit IBM Q Johannesburg coupling map:
// four rows of five qubits with vertical rungs at the row ends and
// centre.
func Johannesburg() Topology {
	return fromEdges("johannesburg", 20, [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 4},
		{0, 5}, {2, 7}, {4, 9},
		{5, 6}, {6, 7}, {7, 8}, {8, 9},
		{5, 10}, {9, 14},
		{10, 11}, {11, 12}, {12, 13}, {13, 14},
		{10, 15}, {12, 17}, {14, 19},
		{15, 16}, {16, 17}, {17, 18}, {18, 19},
	})
}

// Cairo returns the 27-qubit IBM Falcon heavy-hex coupling map shared by
// ibm_cairo, ibmq_montreal and siblings.
func Cairo() Topology {
	return fromEdges("cairo", 27, [][2]int{
		{0, 1}, {1, 2}, {1, 4}, {2, 3}, {3, 5}, {4, 7}, {5, 8},
		{6, 7}, {7, 10}, {8, 9}, {8, 11}, {10, 12}, {11, 14},
		{12, 13}, {12, 15}, {13, 14}, {14, 16}, {15, 18}, {16, 19},
		{17, 18}, {18, 21}, {19, 20}, {19, 22}, {21, 23}, {22, 25},
		{23, 24}, {24, 25}, {25, 26},
	})
}

// Cambridge returns the 28-qubit IBM Q Cambridge coupling map: three
// horizontal rows joined by sparse vertical rungs, forming a ring of
// hexagons with average degree close to 2.
func Cambridge() Topology {
	return fromEdges("cambridge", 28, [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 4},
		{0, 5}, {4, 6},
		{5, 9}, {6, 13},
		{7, 8}, {8, 9}, {9, 10}, {10, 11}, {11, 12}, {12, 13}, {13, 14},
		{7, 16}, {11, 17}, {14, 18},
		{15, 16}, {17, 23}, {18, 27},
		{16, 19},
		{19, 20}, {20, 21}, {21, 22}, {22, 23}, {23, 24}, {24, 25}, {25, 26}, {26, 27},
	})
}

// Brooklyn returns the 65-qubit IBM Hummingbird heavy-hex coupling map
// shared by ibmq_brooklyn and ibmq_manhattan.
func Brooklyn() Topology {
	return fromEdges("brooklyn", 65, [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 8}, {8, 9},
		{0, 10}, {4, 11}, {8, 12},
		{10, 13}, {11, 17}, {12, 21},
		{13, 14}, {14, 15}, {15, 16}, {16, 17}, {17, 18}, {18, 19}, {19, 20}, {20, 21}, {21, 22}, {22, 23},
		{15, 24}, {19, 25}, {23, 26},
		{24, 29}, {25, 33}, {26, 37},
		{27, 28}, {28, 29}, {29, 30}, {30, 31}, {31, 32}, {32, 33}, {33, 34}, {34, 35}, {35, 36}, {36, 37},
		{27, 38}, {31, 39}, {35, 40},
		{38, 41}, {39, 45}, {40, 49},
		{41, 42}, {42, 43}, {43, 44}, {44, 45}, {45, 46}, {46, 47}, {47, 48}, {48, 49}, {49, 50}, {50, 51},
		{43, 52}, {47, 53}, {51, 54},
		{52, 56}, {53, 60}, {54, 64},
		{55, 56}, {56, 57}, {57, 58}, {58, 59}, {59, 60}, {60, 61}, {61, 62}, {62, 63}, {63, 64},
	})
}
