package matching

import "math"

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
