package matching

import (
	"fmt"
	"math"
)

// EdgeF is a weighted undirected edge with a float64 weight, the input
// of the float-weighted matching front end.
type EdgeF struct {
	I, J int
	W    float64
}

// WeightScale is the fixed-point resolution of quantized weights: one
// integer weight unit is 1/WeightScale nats. At 2^16 the quantization
// error of a log-likelihood weight is below 2e-5 nats — far inside the
// noise of any estimated error probability — while sums over decoder
// paths stay comfortably inside int64.
const WeightScale = 1 << 16

// QuantizeWeight maps a float weight onto the shared fixed-point grid.
// Exactly proportional inputs stay exactly proportional whenever they
// are integer multiples of a common mechanism weight, which is what
// keeps unit-prior decoding bit-identical to unit-weight decoding.
func QuantizeWeight(w float64) int64 {
	return int64(math.Round(w * WeightScale))
}

// MinWeightPerfectMatchingFloat computes a minimum-weight perfect
// matching over float-weighted edges by quantizing every weight with
// QuantizeWeight and delegating to the exact integer blossom matcher.
// Weights must be finite and non-negative.
func MinWeightPerfectMatchingFloat(nvertex int, edges []EdgeF) ([][2]int, error) {
	ws := workspaces.Get().(*Workspace)
	defer workspaces.Put(ws)
	q := ws.edgeBuf[:0]
	for _, e := range edges {
		if math.IsNaN(e.W) || math.IsInf(e.W, 0) || e.W < 0 {
			return nil, fmt.Errorf("matching: edge (%d,%d) has invalid weight %v", e.I, e.J, e.W)
		}
		q = append(q, Edge{I: e.I, J: e.J, W: QuantizeWeight(e.W)})
	}
	ws.edgeBuf = q
	mate, err := ws.MinWeightPerfectMatching(nvertex, q)
	return matePairs(mate), err
}
