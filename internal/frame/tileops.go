package frame

// Tile micro-kernels: the word-wide inner loops every Clifford gate of
// RunTile reduces to. Each operates on one qubit's tile row (1 to
// MaxTileWords words).

// tileXor XORs src into dst (dst ^= src), len(dst) == len(src).
func tileXor(dst, src []uint64) {
	for k := range dst {
		dst[k] ^= src[k]
	}
}

// tileSwap exchanges a and b element-wise.
func tileSwap(a, b []uint64) {
	for k := range a {
		a[k], b[k] = b[k], a[k]
	}
}

// tileZero clears t.
func tileZero(t []uint64) {
	for k := range t {
		t[k] = 0
	}
}

// tileFillXor stores ref^src into dst (a measurement's packed record
// row from the reference bit and the X frame plane).
func tileFillXor(dst, src []uint64, ref uint64) {
	for k := range dst {
		dst[k] = ref ^ src[k]
	}
}
