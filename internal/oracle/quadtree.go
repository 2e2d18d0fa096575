package oracle

// The brute-force reference for the hierarchical (quadtree) far-field
// engine (internal/sinr/quadtree.go): the same pyramid *specification* —
// depth L(n, span), leaf side, binning, bottom-up power-weighted aggregates,
// per-level opening radii, fixed-order walk — computed with the package's
// naive physics (math.Hypot distances, math.Pow path loss) and naive
// bookkeeping (per-level maps, recursion, no scratch reuse, no refinement).
//
// Two kinds of expression live here, deliberately distinguished:
//
//   - Decision expressions — the opening comparison d² ≥ openRad²[level],
//     the centroid folds it reads, and the traversal order — PARTITION the
//     computation between "aggregate" and "descend". These are transcribed
//     from the kernel expression for expression (same floats in, same
//     floats compared), because a flipped decision swaps an exact branch
//     for an ε-approximate one and no numeric tolerance covers that.
//   - Physics inside each branch — gains, distances — is naive
//     (math.Hypot + math.Pow), differing from the kernel by a few ulps,
//     which is exactly what the 1e-12 differential suite measures.
//
// TestQuadPlanLockstep asserts the two derivations produce identical plans,
// TestDifferentialQuadtreeVsOracle pins the walked SINR to 1e-12 relative,
// and TestQuadtreeErrorBound pins both within the certified ε of the exact
// physics. When an optimization breaks the quadtree kernel, the
// disagreement with this file is the proof.

import (
	"math"

	"sinrconn/internal/geom"
	"sinrconn/internal/phys"
)

// maxQuadLevels and farMinRing mirror the kernel's clamps: the depth cap
// (4^9 leaves) and the ring-radius floor behind θ ≤ √2/2.
const (
	maxQuadLevels = 9
	farMinRing    = 2
)

// Morton is the naive per-bit transcription of the kernel's Z-order node
// index (sinr.MortonEncode does it with byte tables): bit i of x lands at
// bit 2i, bit i of y at bit 2i+1. The lockstep suite cross-checks the two
// implementations exhaustively.
func Morton(x, y int) int {
	id := 0
	for i := 0; i < 16; i++ {
		id |= (x >> i & 1) << (2 * i)
		id |= (y >> i & 1) << (2*i + 1)
	}
	return id
}

// MortonXY inverts Morton, naively per bit.
func MortonXY(id int) (x, y int) {
	for i := 0; i < 16; i++ {
		x |= (id >> (2 * i) & 1) << i
		y |= (id >> (2*i + 1) & 1) << i
	}
	return x, y
}

// QuadLevels is the naive transcription of sinr.QuadLevels: ≈ log₄(n/4),
// lowered until the leaf side span/2^L is at least 1 and capped at
// maxQuadLevels.
func QuadLevels(n int, span float64) int {
	l := int(math.Ceil(math.Log2(math.Max(2, float64(n)))/2)) - 1
	if l > maxQuadLevels {
		l = maxQuadLevels
	}
	for l > 0 && span/float64(int32(1)<<l) < 1 {
		l--
	}
	if l < 0 {
		l = 0
	}
	return l
}

// QuadTheta is the naive transcription of sinr.QuadTheta: the opening
// threshold (1+ε)^{1/α} − 1 clamped to √2/farMinRing.
func QuadTheta(alpha, maxRelErr float64) float64 {
	t := math.Pow(1+maxRelErr, 1/alpha) - 1
	if max := math.Sqrt2 / farMinRing; t > max {
		t = max
	}
	return t
}

// QuadCertifiedErr is the naive transcription of the certified bound:
// (1+θ)^α − 1, repaired to ε when the float round-trip lands an ulp above
// (the analytic bound is exactly ε when the θ clamp is slack).
func QuadCertifiedErr(theta, alpha, maxRelErr float64) float64 {
	e := math.Pow(1+theta, alpha) - 1
	if e > maxRelErr {
		e = maxRelErr
	}
	return e
}

// QuadPlan is the naive transcription of the hierarchical plan geometry.
type QuadPlan struct {
	Levels   int
	Cell     float64
	OX, OY   float64
	Theta    float64
	OpenRad2 []float64 // per level: squared opening radius
}

// QuadPlanFor derives the pyramid for pts at the given exponent and error
// bound, expression for expression as the kernel does.
func QuadPlanFor(pts []geom.Point, alpha, maxRelErr float64) QuadPlan {
	lo, hi := pts[0], pts[0]
	for _, p := range pts[1:] {
		if p.X < lo.X {
			lo.X = p.X
		}
		if p.Y < lo.Y {
			lo.Y = p.Y
		}
		if p.X > hi.X {
			hi.X = p.X
		}
		if p.Y > hi.Y {
			hi.Y = p.Y
		}
	}
	span := hi.X - lo.X
	if h := hi.Y - lo.Y; h > span {
		span = h
	}
	if !(span > 0) {
		span = 1
	}
	l := QuadLevels(len(pts), span)
	theta := QuadTheta(alpha, maxRelErr)
	qp := QuadPlan{
		Levels:   l,
		Cell:     span / float64(int32(1)<<l),
		OX:       lo.X,
		OY:       lo.Y,
		Theta:    theta,
		OpenRad2: make([]float64, l+1),
	}
	for lvl := 0; lvl <= l; lvl++ {
		side := qp.Cell * float64(int32(1)<<(l-lvl))
		or := side * math.Sqrt2 / theta
		qp.OpenRad2[lvl] = or * or
	}
	return qp
}

// Leaf returns p's leaf coordinates at the deepest level, clamped into the
// grid.
func (qp QuadPlan) Leaf(p geom.Point) (x, y int) {
	dim := 1 << qp.Levels
	x = int(math.Floor((p.X - qp.OX) / qp.Cell))
	y = int(math.Floor((p.Y - qp.OY) / qp.Cell))
	if x < 0 {
		x = 0
	} else if x >= dim {
		x = dim - 1
	}
	if y < 0 {
		y = 0
	} else if y >= dim {
		y = dim - 1
	}
	return x, y
}

// quadAgg is one pyramid node's sender aggregate. cx/cy hold raw Σ P·coord
// sums during accumulation and the normalized centroid afterwards, exactly
// like the kernel scratch.
type quadAgg struct {
	mass, cx, cy, pmax float64
}

// quadAccumulate folds txs into per-node aggregates: leaves in tx order,
// then each level into its parents in first-touch order, then one centroid
// normalization sweep — the kernel's fold orders, transcribed, so every sum
// is bit-identical to the scratch's. Nodes are keyed by Morton index,
// mirroring the kernel's Z-order layout: a node's parent is id>>2.
func quadAccumulate(qp QuadPlan, pts []geom.Point, txs []phys.Tx) []map[int]*quadAgg {
	l := qp.Levels
	levels := make([]map[int]*quadAgg, l+1)
	orders := make([][]int, l+1)
	for lvl := 0; lvl <= l; lvl++ {
		levels[lvl] = make(map[int]*quadAgg)
	}
	for _, t := range txs {
		x, y := qp.Leaf(pts[t.Sender])
		id := Morton(x, y)
		a := levels[l][id]
		if a == nil {
			a = &quadAgg{}
			levels[l][id] = a
			orders[l] = append(orders[l], id)
		}
		a.mass += t.Power
		a.cx += t.Power * pts[t.Sender].X
		a.cy += t.Power * pts[t.Sender].Y
		if t.Power > a.pmax {
			a.pmax = t.Power
		}
	}
	for lvl := l; lvl > 0; lvl-- {
		for _, id := range orders[lvl] {
			pid := id >> 2
			pa := levels[lvl-1][pid]
			if pa == nil {
				pa = &quadAgg{}
				levels[lvl-1][pid] = pa
				orders[lvl-1] = append(orders[lvl-1], pid)
			}
			a := levels[lvl][id]
			pa.mass += a.mass
			pa.cx += a.cx
			pa.cy += a.cy
			if a.pmax > pa.pmax {
				pa.pmax = a.pmax
			}
		}
	}
	for lvl := 0; lvl <= l; lvl++ {
		for _, id := range orders[lvl] {
			a := levels[lvl][id]
			if a.mass > 0 {
				a.cx /= a.mass
				a.cy /= a.mass
			}
		}
	}
	return levels
}

// QuadLinkSINR returns the hierarchical far-field approximate SINR of link
// l with sender power pu among txs, the naive way: exact signal, recursive
// fixed-order walk opening nodes by the transcribed criterion, leaf-exact
// interference inside the opening horizon (per sender, math.Pow physics),
// aggregated centroid-mass terms beyond it. The link's own sender is
// excluded exactly in opened leaves and by mass subtraction in the
// aggregated ancestor that absorbs it. txs must contain at most one entry
// per sender — the same contract as the kernel's LinkSINR.
func QuadLinkSINR(pts []geom.Point, p phys.Params, maxRelErr float64, txs []phys.Tx, l phys.Link, pu float64) float64 {
	qp := QuadPlanFor(pts, p.Alpha, maxRelErr)
	levels := quadAccumulate(qp, pts, txs)

	signal := pu * Gain(pts, p.Alpha, l.From, l.To)
	if signal == 0 {
		return 0
	}
	ux, uy := qp.Leaf(pts[l.From])
	pv := pts[l.To]
	lq := qp.Levels
	interference := 0.0
	var walk func(lvl, x, y int)
	walk = func(lvl, x, y int) {
		a := levels[lvl][Morton(x, y)]
		if a == nil || a.mass == 0 {
			return
		}
		dx := pv.X - a.cx
		dy := pv.Y - a.cy
		d2 := dx*dx + dy*dy // decision expression: transcribed, not Hypot
		if d2 >= qp.OpenRad2[lvl] {
			m := a.mass
			shift := uint(lq - lvl)
			if x == ux>>shift && y == uy>>shift {
				m -= pu
			}
			if m <= 0 {
				return
			}
			interference += m / PathLoss(math.Hypot(dx, dy), p.Alpha)
			return
		}
		if lvl == lq {
			for _, t := range txs {
				if t.Sender == l.From {
					continue
				}
				tx, ty := qp.Leaf(pts[t.Sender])
				if tx == x && ty == y {
					interference += t.Power / PathLoss(Dist(pts, t.Sender, l.To), p.Alpha)
				}
			}
			return
		}
		// The kernel's DFS pops children in index order.
		walk(lvl+1, 2*x, 2*y)
		walk(lvl+1, 2*x+1, 2*y)
		walk(lvl+1, 2*x, 2*y+1)
		walk(lvl+1, 2*x+1, 2*y+1)
	}
	walk(0, 0, 0)
	return signal / (p.Noise + interference)
}

// QuadSINRFeasible is the naive transcription of the hierarchical
// feasibility check with its (1±ε) guard band at the β cut: a link passes
// when its approximate SINR times (1 + ε_certified) clears
// β − FeasibilitySlack.
func QuadSINRFeasible(pts []geom.Point, p phys.Params, maxRelErr float64, links []phys.Link, powers []float64) (bool, error) {
	if len(links) != len(powers) {
		return false, phys.ErrMismatchedLengths
	}
	txs := make([]phys.Tx, len(links))
	for i, l := range links {
		txs[i] = phys.Tx{Sender: l.From, Power: powers[i]}
	}
	theta := QuadTheta(p.Alpha, maxRelErr)
	band := 1 + QuadCertifiedErr(theta, p.Alpha, maxRelErr)
	cut := p.Beta - FeasibilitySlack
	for i, l := range links {
		if QuadLinkSINR(pts, p, maxRelErr, txs, l, powers[i])*band < cut {
			return false, nil
		}
	}
	return true, nil
}
