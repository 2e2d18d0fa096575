package sinr

// Morton (Z-order) codec for the quadtree pyramid. A node's position
// within its level is the interleaving of its grid coordinates' bits
// (x in the even positions, y in the odd ones), so that the four children
// of node t are exactly nodes 4t..4t+3 of the next level and t's parent is
// t>>2. The payoff is locality: siblings — and, recursively, whole
// subtrees — occupy contiguous index ranges, so the proximity-first DFS of
// Resolve walks contiguous cache lines instead of striding row-major rows
// 2^ℓ apart (DESIGN.md §12).
//
// MortonEncode is a byte-table lookup that spreads each coordinate byte to
// its even bit positions. The table covers coordinates up to 16 bits — far
// beyond maxQuadLevels = 9 (coordinates < 2^9, codes < 2^18).

// mortonSpread8 maps a byte to the 16-bit word holding its bits in the
// even positions (bit i → bit 2i).
var mortonSpread8 [256]uint32

func init() {
	for b := 0; b < 256; b++ {
		var s uint32
		for i := uint(0); i < 8; i++ {
			if b&(1<<i) != 0 {
				s |= 1 << (2 * i)
			}
		}
		mortonSpread8[b] = s
	}
}

// MortonEncode interleaves the low 16 bits of x and y into a Z-order code:
// bit i of x lands at bit 2i, bit i of y at bit 2i+1. Exported for the
// oracle lockstep suite, which cross-checks it against a naive per-bit
// transcription.
func MortonEncode(x, y int32) int32 {
	return int32(mortonSpread8[x&0xff] | mortonSpread8[(x>>8)&0xff]<<16 |
		(mortonSpread8[y&0xff]|mortonSpread8[(y>>8)&0xff]<<16)<<1)
}
