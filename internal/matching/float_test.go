package matching

import "testing"

func TestQuantizeWeightResolution(t *testing.T) {
	if QuantizeWeight(0) != 0 {
		t.Fatal("zero must quantize to zero")
	}
	if QuantizeWeight(1) != WeightScale {
		t.Fatalf("unit weight quantized to %d", QuantizeWeight(1))
	}
	// Proportionality on integer multiples of a common unit.
	const u = 0.1234567
	for k := int64(1); k <= 64; k++ {
		if QuantizeWeight(float64(k)*u) < (k-1)*QuantizeWeight(u) {
			t.Fatalf("gross proportionality violated at k=%d", k)
		}
	}
}
