package qec

import "radqec/internal/matching"

// The scalar oracle: the decode path every decoder had before all of
// them ran through decodeTile, kept verbatim as the reference the tile
// and one-lane decoders are compared against. It shares only the
// matcher call (matchDefects) and ufDecode with production, so a fault
// in detection-event extraction, the memo tiers or the miss tier's
// defect list shows up as a disagreement.

// oracleDecode is the scalar MWPM decode.
func (c *Code) oracleDecode(bits []int) int {
	return c.decodeWith(bits, (*matching.Workspace).MinWeightPerfectMatching)
}

// oracleGreedy is the scalar greedy decode.
func (c *Code) oracleGreedy(bits []int) int {
	return c.decodeWith(bits, (*matching.Workspace).GreedyPerfectMatching)
}

// oracleUnionFind is the scalar union-find decode.
func (c *Code) oracleUnionFind(bits []int) int {
	defects := c.detectionEvents(nil, bits)
	flips := ufDecode(c.DEM(), defects, c.Data.Size)
	return c.logicalValue(bits, flips)
}

// decodeWith is the scalar decode on pooled scratch: events, graph,
// matching and correction all live in one decodeBuf.
func (c *Code) decodeWith(bits []int, match matcher) int {
	buf := decodeBufPool.Get().(*decodeBuf)
	buf.defects = c.detectionEvents(buf.defects[:0], bits)
	v := c.logicalValue(bits, c.matchDefects(buf, buf.defects, match))
	decodeBufPool.Put(buf)
	return v
}

// detectionEvents appends to dst the Z-graph space-time detection
// events of a shot record: round 0 versus the expected all-zero
// syndrome, the differences between consecutive rounds, and the
// last-round/final difference where the final syndrome is recomputed
// from the data readout parities. With R rounds this yields R+1
// detection layers.
func (c *Code) detectionEvents(dst []defect, bits []int) []defect {
	for s, datas := range c.zStabData {
		prev := 0
		for r, creg := range c.CRounds {
			cur := bits[creg.Start+s]
			if prev^cur != 0 {
				dst = append(dst, defect{s, r})
			}
			prev = cur
		}
		final := 0
		for _, d := range datas {
			final ^= bits[c.DataRead.Start+d]
		}
		if prev^final != 0 {
			dst = append(dst, defect{s, len(c.CRounds)})
		}
	}
	return dst
}

// logicalValue applies the correction mask to the data readout and
// returns the parity of the logical Z support.
func (c *Code) logicalValue(bits []int, flips []bool) int {
	v := 0
	for _, d := range c.logicalZ {
		b := bits[c.DataRead.Start+d]
		if flips[d] {
			b ^= 1
		}
		v ^= b
	}
	return v
}
