package sinr

import "math"

// Test-only forms of the kernel and the quadtree, and test-only power and
// gain-table seams. Production works from the memoized cFromLenAlpha and
// affectanceTerm directly; C and SetAffectance wrap exactly those two, so
// the oracle differential, metamorphic and fuzz tests pin the production
// arithmetic against the reference physics. The quadtree accessors and the
// Morton decoder expose the pyramid's layout to the oracle lockstep and
// drift suites. PerLink gives tests an arbitrary per-link assignment, and
// disableGainTableForTest the tableless gain path.

// C returns the paper's c(u,v) = β/(1 − βN·d(u,v)^α/P_u), the noise-derating
// constant of a link of the given length whose sender uses power pu. It
// returns +Inf when the link cannot meet SINR β even without interference
// (P_u ≤ βN·d^α). Section 5 requires protocols to pick powers keeping
// c(u,v) ≤ 2β; SafePower does exactly that.
func (in *Instance) C(length, pu float64) float64 {
	return in.cFromLenAlpha(PowAlpha(length, in.params.Alpha), pu)
}

// SetAffectance returns a_S(ℓ) = Σ_{w∈S} a_w(ℓ) for the sender set txs. The
// link constants c(u,v) and d(u,v)^α are computed once for the whole sum.
func (in *Instance) SetAffectance(txs []Tx, l Link, pu float64) float64 {
	cap_ := 1 + in.params.Epsilon
	lenAlpha := in.LengthAlpha(l)
	c := in.cFromLenAlpha(lenAlpha, pu)
	sum := 0.0
	if math.IsInf(c, 1) {
		// Every interferer contributes the cap; summed term by term so the
		// result is bit-identical to the per-term formulation.
		for _, t := range txs {
			if t.Sender != l.From {
				sum += cap_
			}
		}
		return sum
	}
	for _, t := range txs {
		if t.Sender == l.From {
			continue
		}
		sum += in.affectanceTerm(t.Sender, t.Power, l.To, pu, lenAlpha, c, cap_)
	}
	return sum
}

// PerLink is an arbitrary per-link power table, the form power-control
// output takes (Section 8.2.3). Links not in the table fall back to
// Fallback if non-nil.
type PerLink struct {
	Table    map[Link]float64
	Fallback Assignment
}

var _ Assignment = PerLink{}

// Power implements Assignment.
func (a PerLink) Power(in *Instance, l Link) float64 {
	if p, ok := a.Table[l]; ok {
		return p
	}
	if a.Fallback != nil {
		return a.Fallback.Power(in, l)
	}
	return 0
}

// Name implements Assignment.
func (a PerLink) Name() string { return "arbitrary" }

// disableGainTableForTest forces the tableless fallback so tests can assert
// the two paths agree bit-for-bit.
func (in *Instance) disableGainTableForTest() {
	in.seedGainTable(nil, 0, nil)
}

// LeafCell returns the leaf side.
func (q *QuadTree) LeafCell() float64 { return q.cell }

// OpenRadius2 returns the squared opening radius of level lvl — a node at
// that level is aggregated iff the listener's squared centroid distance is
// at least this value.
func (q *QuadTree) OpenRadius2(lvl int) float64 { return q.openRad2[lvl] }

// LeafCoords returns node i's leaf coordinates at the deepest level.
func (q *QuadTree) LeafCoords(i int) (x, y int) {
	mx, my := MortonDecode(q.leafOf[i])
	return int(mx), int(my)
}

// mortonGather8 maps a byte to the nibble collecting its even-position
// bits (bit 2i → bit i).
var mortonGather8 = func() (g [256]uint8) {
	for b := 0; b < 256; b++ {
		for i := uint(0); i < 4; i++ {
			if b&(1<<(2*i)) != 0 {
				g[b] |= 1 << i
			}
		}
	}
	return g
}()

// MortonDecode inverts MortonEncode for non-negative codes (up to 31
// bits): it deinterleaves t back into its grid coordinates.
func MortonDecode(t int32) (x, y int32) {
	u := uint32(t)
	x = int32(uint32(mortonGather8[u&0xff]) |
		uint32(mortonGather8[(u>>8)&0xff])<<4 |
		uint32(mortonGather8[(u>>16)&0xff])<<8 |
		uint32(mortonGather8[(u>>24)&0xff])<<12)
	u >>= 1
	y = int32(uint32(mortonGather8[u&0xff]) |
		uint32(mortonGather8[(u>>8)&0xff])<<4 |
		uint32(mortonGather8[(u>>16)&0xff])<<8 |
		uint32(mortonGather8[(u>>24)&0xff])<<12)
	return x, y
}
