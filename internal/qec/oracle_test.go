package qec

import "radqec/internal/matching"

// The scalar oracle: the decode path every decoder had before all of
// them ran through decodeTile, kept verbatim as the reference the tile
// and one-lane decoders are compared against. It shares only the
// matcher call (matchMates, through matchDefects) and ufDecode with production, so a fault
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

// decodeWith is the scalar decode on pooled scratch: events, graph and
// matching live in one decodeBuf, the correction mask beside it.
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

// matchDefects is matchMates' correction as a data-qubit flip mask: the
// matched chains' flip sets XORed together, the form matchParity folds
// away. The mask is fresh per call.
func (c *Code) matchDefects(buf *decodeBuf, defects []defect, match matcher) []bool {
	flips := make([]bool, c.Data.Size)
	mate, ok := c.matchMates(buf, defects, match)
	if !ok {
		return flips
	}
	m := c.DEM()
	nd := len(defects)
	for i, j := range mate {
		switch {
		case j >= nd:
			for _, d := range m.BoundaryFlips(defects[i].stab) {
				flips[d] = !flips[d]
			}
		case i < j:
			for _, d := range m.PathFlips(defects[i].stab, defects[j].stab) {
				flips[d] = !flips[d]
			}
		}
	}
	return flips
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
