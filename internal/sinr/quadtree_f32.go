package sinr

import "math"

// Opt-in float32 far-field accumulation (Network option WithFarPrecision):
// the pyramid aggregates are accumulated in float64 exactly as the default
// path, then each occupied node's (mass, centroid) is rounded ONCE to a
// float32 mirror; the walks read the mirror. This halves the bytes the
// aggregate walk streams through the cache on million-node pyramids, at a
// certified accuracy cost that is negligible against every supported ε.
//
// Soundness (DESIGN.md §12 carries the full derivation). Rounding once
// bounds each node's mass at relative error u = 2⁻²⁴ and shifts its
// centroid by at most Δ ≤ u·√2·maxAbs (maxAbs the largest coordinate
// magnitude of the root square). A node is only aggregated when its
// (rounded) centroid distance D′ clears the leaf opening radius
// cell·√2/θ, so the shift perturbs the distance by a relative
// r ≤ u·maxAbs·θ/cell, and the aggregated term mis-states the exact sum
// by at most a further (1+u)/(1−r)^α factor on top of the float64
// certificate:
//
//	certErr32 = (1+certErr)·(1+u)/(1−r)^α − 1
//
// For the bench geometries r ~ u·θ·2^L ≲ 10⁻⁴·θ, so certErr32 − certErr
// is ~10⁻⁷ — seven orders below the smallest supported ε = 0.1: the
// guard band ε dwarfs the f32 ulp, which is what makes the path safe to
// certify at all. Winner exactness survives the same way: the refinement
// bound inflates to refineFac·(1/(1−r))^α (+1 ulp pad), leaf scans stay
// exact float64, so the decoded winner and its received power are exact.
// Degenerate geometries where r would reach 1 (coordinates ~2²⁴ cells
// from the origin) get an infinite refine bound — the walk degrades to an
// exact scan, still sound, never wrong.
//
// Determinism. The decision expressions read float64(float32(agg)) —
// transcribed verbatim by the oracle mirror (oracle.QuadLinkSINR32), so
// kernel and oracle take identical open/accept decisions and the
// differential suite pins the 1e-12 physics bracket exactly as the f64
// path does.

// QuadTreeF32 is the float32-aggregate view of a QuadTree plan: the same
// geometry, binning, and opening radii, with resolvers that accumulate in
// float64, round once per node, and walk float32 aggregates. Obtain it
// with QuadTree.Prec32; it implements Far.
type QuadTreeF32 struct {
	q *QuadTree
	// certErr32 ≥ q.certErr: the float64 certificate widened by the f32
	// rounding factor (package comment).
	certErr32 float64
	// refineFac32 ≥ q.refineFac: the winner-refinement bound widened so an
	// accepted node still cannot hide the true strongest sender when its
	// centroid moved by the f32 rounding.
	refineFac32 float64
}

func newQuadTreeF32(q *QuadTree) *QuadTreeF32 {
	alpha := q.in.params.Alpha
	const u32 = 1.0 / (1 << 24)
	maxAbs := math.Max(
		math.Max(math.Abs(q.ox), math.Abs(q.ox+q.side[0])),
		math.Max(math.Abs(q.oy), math.Abs(q.oy+q.side[0])),
	)
	r := u32 * maxAbs * q.theta / q.cell
	f := &QuadTreeF32{q: q}
	if den := 1 - r; den > 0 {
		f.certErr32 = (1+q.certErr)*(1+u32)/math.Pow(den, alpha) - 1
		f.refineFac32 = q.refineFac * math.Pow(1/den, alpha) * (1 + 1e-12)
	} else {
		// Coordinates ≳ 2²⁴ leaf cells from the origin: the f32 centroid
		// shift can dwarf the opening radius, so nothing can be certified
		// or refuted — every node opens and the walk degrades to an exact
		// scan (sound, never wrong).
		f.certErr32 = math.Inf(1)
		f.refineFac32 = math.Inf(1)
	}
	return f
}

// Prec32 returns the plan's float32-aggregate view (built eagerly with the
// plan; the two share geometry and the instance's plan cache entry).
func (q *QuadTree) Prec32() *QuadTreeF32 { return q.f32 }

// Base returns the float64 plan the mirror wraps — the carrier of the
// originally requested error bound (MaxRelError on the mirror may be a
// rounding sliver wider), which is what an operation inheriting this plan
// onto another instance should rebuild from.
func (f *QuadTreeF32) Base() *QuadTree { return f.q }

// Instance returns the instance the plan was built over.
func (f *QuadTreeF32) Instance() *Instance { return f.q.in }

// MaxRelError returns the effective requested bound: the f64 plan's
// request widened, if necessary, to the f32 certificate (the rounding
// factor can push the certificate an O(2⁻²⁴) sliver past the request, and
// Far promises CertifiedMaxRelError ≤ MaxRelError).
func (f *QuadTreeF32) MaxRelError() float64 {
	if f.certErr32 > f.q.maxRelErr {
		return f.certErr32
	}
	return f.q.maxRelErr
}

// CertifiedMaxRelError returns the certified worst-case relative
// interference error of the float32 walk (package comment).
func (f *QuadTreeF32) CertifiedMaxRelError() float64 { return f.certErr32 }

// NearDominated reports the underlying plan's near-dominated regime (the
// aggregate precision does not move the horizon geometry).
func (f *QuadTreeF32) NearDominated() bool { return f.q.NearDominated() }

// Levels returns the pyramid depth of the underlying plan.
func (f *QuadTreeF32) Levels() int { return f.q.levels }

// NewResolver implements Far: fresh per-slot float32-walk state.
func (f *QuadTreeF32) NewResolver() FarResolver { return f.q.newScratch(true) }

// AcquireResolver implements Far. The f32 view keeps no pool of its own:
// transient validator use is rare enough that a fresh scratch is fine, and
// sharing the f64 pool would hand out scratches without the f32 mirror.
func (f *QuadTreeF32) AcquireResolver() FarResolver { return f.q.newScratch(true) }

// ReleaseResolver implements Far (no pool — the scratch is dropped).
func (f *QuadTreeF32) ReleaseResolver(FarResolver) {}

// round32 rounds node g's aggregates once into the f32 mirror.
func (sc *QuadScratch) round32(g int32) {
	nd := &sc.node[g]
	sc.mass32[g] = float32(nd.mass)
	sc.cenX32[g] = float32(nd.cenX)
	sc.cenY32[g] = float32(nd.cenY)
}

// round32Active rounds every active node's aggregates into the f32 mirror
// (Accumulate's tail).
//
//sinr:hotpath
func (sc *QuadScratch) round32Active() {
	q := sc.q
	for lvl := 0; lvl <= q.levels; lvl++ {
		off := q.levelOff[lvl]
		for _, t := range sc.active[lvl] {
			sc.round32(off + t)
		}
	}
}

// resolve32 is Resolve over the float32 aggregate mirror: identical walk
// structure and child order, with node decisions reading
// float64(float32(agg)) and the widened refinement bound. Leaf scans and
// therefore the winner stay exact float64.
//
//sinr:hotpath
func (sc *QuadScratch) resolve32(v int) (best int, bestRP, total float64, saturated bool) {
	q := sc.q
	in := q.in
	pl := q.pl
	refine := q.f32.refineFac32
	pv := in.pts[v]
	best = -1
	l := int32(q.levels)
	var stack [quadStackCap]quadFrame
	if sc.stamp[0] != sc.epoch {
		return best, 0, 0, false
	}
	top := 1 // stack[0] is the root
	for top > 0 {
		top--
		f := stack[top]
		g := f.g
		dx := pv.X - float64(sc.cenX32[g])
		dy := pv.Y - float64(sc.cenY32[g])
		d2 := dx*dx + dy*dy
		if d2 >= q.openRad2[f.lvl] {
			gc := 1 / pl.Sq(d2)
			if sc.node[g].pmax*gc*refine <= bestRP {
				total += float64(sc.mass32[g]) * gc
				continue
			}
		}
		if f.lvl == l {
			t := g - q.levelOff[l]
			for si := sc.start[t]; si < sc.start[t]+sc.fill[t]; si++ {
				ddx := pv.X - sc.sx[si]
				ddy := pv.Y - sc.sy[si]
				sd2 := ddx*ddx + ddy*ddy
				if sd2 == 0 {
					return -1, 0, 0, true
				}
				rp := sc.sp[si] / pl.Sq(sd2)
				total += rp
				if rp > bestRP {
					bestRP = rp
					best = int(sc.order[si])
				}
			}
			continue
		}
		kids := sc.kids[g]
		near := q.nearChild(f, pv.X, pv.Y)
		for k := int32(3); k >= 0; k-- {
			if c := near ^ k; kids>>uint(c)&1 != 0 {
				stack[top] = f.child(c)
				top++
			}
		}
	}
	return best, bestRP, total, false
}

// linkSINR32 is LinkSINR over the float32 aggregate mirror; the oracle
// transcription is QuadLinkSINR32.
//
//sinr:hotpath
func (sc *QuadScratch) linkSINR32(txs []Tx, l Link, pu float64) float64 {
	q := sc.q
	in := q.in
	pl := q.pl
	u, v := l.From, l.To
	pv := in.pts[v]
	signal := pu / PowAlphaSq(pv.DistSq(in.pts[u]), in.params.Alpha)
	if signal == 0 {
		return 0
	}
	ep := sc.epoch
	lv := q.levels
	ul := q.leafOf[u]
	interference := 0.0
	if sc.stamp[0] != ep {
		return signal / in.params.Noise
	}
	var stack [quadStackCap]int64
	stack[0] = 0
	top := 1
	for top > 0 {
		top--
		e := stack[top]
		lvl := int(e >> 32)
		t := int32(e)
		g := q.levelOff[lvl] + t
		dx := pv.X - float64(sc.cenX32[g])
		dy := pv.Y - float64(sc.cenY32[g])
		d2 := dx*dx + dy*dy
		if d2 >= q.openRad2[lvl] {
			m := float64(sc.mass32[g])
			if t == ul>>(2*uint(lv-lvl)) {
				m -= pu
			}
			if m <= 0 {
				continue
			}
			interference += m / pl.Sq(d2)
			continue
		}
		if lvl == lv {
			for si := sc.start[t]; si < sc.start[t]+sc.fill[t]; si++ {
				if txs[sc.order[si]].Sender == u {
					continue
				}
				ddx := pv.X - sc.sx[si]
				ddy := pv.Y - sc.sy[si]
				sd2 := ddx*ddx + ddy*ddy
				interference += sc.sp[si] / pl.Sq(sd2)
			}
			continue
		}
		top = sc.pushQuadrant(&stack, top, lvl, t)
	}
	return signal / (in.params.Noise + interference)
}
