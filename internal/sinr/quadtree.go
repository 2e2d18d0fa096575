package sinr

// The hierarchical (quadtree) far-field engine: the sub-quadratic
// channel-resolution mode behind WithMaxRelError. The exact physics
// resolves every (sender, listener) pair — O(n²) per slot — which caps the
// instance sizes the gain table (and, beyond its memory bound, the
// tableless fallback) can serve. Far interference under the physical model
// decays as d^{-α}, so distant senders are aggregated Barnes–Hut style at
// a resolution *adapted to each listener*: senders are aggregated into a
// pyramid of square nodes (leaves are grid tiles; every parent covers its
// four children), and each listener walks the pyramid top-down, opening a
// node only when its aggregate could violate the listener's ε budget.
// Distant clutter collapses into a handful of coarse nodes; nearby senders
// are resolved leaf-exact — tight ε stays cheap because only the listener's
// own neighborhood pays for it.
//
// Geometry. The root is the square of side span = max(bbox width, height)
// anchored at the bounding box's lower corner. Level ℓ splits it into
// 2^ℓ × 2^ℓ squares; the deepest level L has ~n leaves (L ≈ log₄ n),
// clamped so the leaf side never drops below 1 — the paper's min-distance
// normalization — and the depth never exceeds maxQuadLevels. Nodes are stored as one linearized pyramid (level
// offsets (4^ℓ−1)/3); within each level nodes sit in Morton (Z-curve)
// order — a node's position is the bit-interleaving of its grid
// coordinates (morton.go) — so a node's parent is t>>2, its children are
// 4t..4t+3, and every subtree occupies one contiguous index range. The
// proximity-first DFS therefore touches contiguous cache lines instead of
// striding row-major rows apart (DESIGN.md §12); parent, children, and
// square remain index arithmetic — no pointers, no per-node allocation.
//
// Per-slot accumulation. One bottom-up pass per slot (Accumulate): senders
// fold into their leaf's aggregates — total transmit mass Σ P_w, raw
// power-weighted coordinate sums Σ P_w·x, Σ P_w·y, and the strongest single
// power — then each occupied level folds into the level above, touching
// only occupied nodes (epoch-stamped), in
// O(#senders + #occupied nodes) with zero allocations. Centroids are
// normalized once at the end, so every level's centroid is the exact
// power-weighted centroid of the senders below it — which lies in their
// convex hull, hence inside the node's square: the only property the error
// bound needs.
//
// Opening criterion. For a node of side s, every member lies within
// R = s·√2 of the node's centroid (both are inside the square). With D the
// listener→centroid distance and δ = R/D, each member's true distance lies
// in [D(1−δ), D(1+δ)], so the aggregated gain mass/D^α mis-states each
// member's gain by a factor in [(1−δ)^α, (1+δ)^α] — the ε/guard-band
// algebra of DESIGN.md §7 with the tile diagonal generalized to the node
// diameter/distance ratio δ (§8 carries the derivation). The binding side
// is the overestimate, (1+δ)^α ≤ 1+ε, so a node is ACCEPTED (aggregated as
// one term) iff
//
//	δ ≤ θ(ε, α) = min( (1+ε)^{1/α} − 1, √2/minFarRing )
//
// equivalently D ≥ s·√2/θ — per level a precomputed squared radius, one
// float compare per visited node. The √2/minFarRing clamp keeps δ ≤ √2/2
// < 1, so member distances stay bounded away from zero and (1−δ)^α ≥ 1−ε
// holds on the underestimate side too. There is no integral ring radius to
// round, so the certified bound (1+θ)^α − 1 equals the requested ε
// whenever the clamp is slack.
//
// Winner exactness. Channel decode must crown the true strongest sender:
// an ε-perturbed gain must never crown the wrong winner. An accepted node's best possible single received
// power is pmax · (mass-free) centroid gain · 1/(1−θ)^α (a member is at
// distance ≥ D(1−δ) ≥ D(1−θ)); when that could beat the best exact
// candidate so far, Resolve opens the node instead of accepting it,
// descending until the threat is either refuted at a coarser level or
// resolved sender-by-sender in a leaf. The decoded winner and its received
// power are therefore always exact; only the interference total carries ε.
//
// Determinism and lockstep. LinkSINR walks a fixed-order DFS (children in
// quadrant order — the same spatial sequence the pre-Morton row-major walk
// popped), accumulation folds in first-touch order, and acceptance
// compares the same float expressions the naive reference in
// internal/oracle/quadtree.go transcribes — so kernel and oracle take
// identical open/accept decisions and differ only by the physics kernel's
// few-ulp rounding (pinned at 1e-12 by the differential suite). Resolve
// instead descends proximity-first (nearest child quadrant before its
// siblings) so the refinement pruning sees a strong bestRP early; that
// order is a pure function of the listener position and the static
// geometry, so engine runs stay deterministic and worker-count
// independent (Resolve has no oracle mirror — its tests pin the winner
// against the exact argmax and the total against the certified band, both
// traversal-order-free properties; TestMortonLayoutDriftGate additionally
// pins the whole engine bit-identical to the retired row-major layout).

import (
	"fmt"
	"math"
	"sync"

	"sinrconn/internal/geom"
)

// maxQuadLevels caps the pyramid depth: 4^9 = 262144 leaves, so degenerate
// geometries (the exponential chain's astronomically wide bounding box)
// cannot demand an unbounded scratch allocation.
const maxQuadLevels = 9

// minFarRing is the floor of DESIGN.md §7's near-ring radius k: below
// k = 2 the far-distance lower bound no longer dominates the tile diagonal
// and the error bound degenerates. The opening threshold inherits it as
// θ ≤ √2/minFarRing.
const minFarRing = 2

// maxFarPlans bounds the per-instance plan cache (one plan per distinct ε).
const maxFarPlans = 8

// QuadLevels returns the pyramid depth for an n-node instance whose root
// square has the given side: ≈ log₄(n/4) (about four nodes per leaf — the
// measured optimum of the leaf-scan-versus-pyramid-walk tradeoff, both
// sides of which scale as θ⁻²; one level deeper trades ~4·2π/θ² extra node
// visits for a ~4× smaller exact-scan disk, and ~4 nodes per leaf is where
// the two marginal costs meet on the bench geometry). The depth is lowered
// until the leaf side span/2^L is at least 1 (the min-distance
// normalization — a leaf never subdivides the model's unit scale) and
// clamped to maxQuadLevels.
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

// QuadTheta returns the opening threshold θ(ε, α): the largest admissible
// node-diameter/centroid-distance ratio, (1+ε)^{1/α} − 1 clamped to
// √2/minFarRing (keeping δ < 1).
func QuadTheta(alpha, maxRelErr float64) float64 {
	t := math.Pow(1+maxRelErr, 1/alpha) - 1
	if max := math.Sqrt2 / minFarRing; t > max {
		t = max
	}
	return t
}

// QuadCertifiedErr returns (1+θ)^α − 1, the worst-case relative
// interference error certified by opening threshold θ. It equals the
// requested ε whenever the θ clamp is slack.
func QuadCertifiedErr(theta, alpha float64) float64 {
	return math.Pow(1+theta, alpha) - 1
}

// QuadTree is an immutable hierarchical far-field plan over one Instance:
// the pyramid geometry, the node→leaf assignment, and the per-level opening
// radii derived from the requested error bound. Build one with
// Instance.QuadTree (plans are cached per ε on the instance); per-slot
// state lives in a QuadScratch so one plan serves concurrent engines and
// validators. Every far-field consumer (sim.Config.Far, tree validation,
// the session layer) takes a *QuadTree; nil means exact resolution.
type QuadTree struct {
	in        *Instance
	maxRelErr float64 // requested bound
	certErr   float64 // certified bound (1+θ)^α − 1 ≤ maxRelErr
	theta     float64
	levels    int     // L: leaves form a 2^L × 2^L grid
	cell      float64 // leaf side
	ox, oy    float64
	leafDim   int32 // 2^L
	nodes     int   // total pyramid size (4^{L+1}−1)/3
	levelOff  []int32
	openRad2  []float64 // per level: squared opening radius (s·√2/θ)²
	side      []float64 // per level: node side s = cell·2^{L−ℓ}
	// refineFac bounds any member's gain relative to the gain at its node's
	// centroid: member distance ≥ D(1−θ) at an accepted node, so member
	// gain ≤ centroid gain · 1/(1−θ)^α. Resolve uses it to decide which
	// accepted nodes could hide the strongest sender and must be opened.
	refineFac float64
	// pl is the model's path loss, with the default α = 3 arm inlined
	// into the walks (bit-identical to PowAlphaSq; see PathLoss).
	pl     PathLoss
	leafOf []int32 // node(point) → leaf-local id (Morton code at level L)

	scratches *sync.Pool // validator scratches (Acquire/Release)
}

// newQuadTree derives the plan. Kept in lockstep with the independent naive
// derivation in internal/oracle/quadtree.go — the differential suite
// asserts the two agree on (levels, cell, binning, opening radii) exactly.
func newQuadTree(in *Instance, maxRelErr float64) (*QuadTree, error) {
	if !(maxRelErr > 0) || math.IsInf(maxRelErr, 1) {
		return nil, fmt.Errorf("sinr: quadtree max relative error must be positive and finite, got %v", maxRelErr)
	}
	n := len(in.pts)
	alpha := in.params.Alpha
	lo, hi := geom.BoundingBox(in.pts)
	span := hi.X - lo.X
	if h := hi.Y - lo.Y; h > span {
		span = h
	}
	if !(span > 0) { // degenerate (single point / duplicate) boxes
		span = 1
	}
	l := QuadLevels(n, span)
	theta := QuadTheta(alpha, maxRelErr)
	// θ analytically inverts (1+ε)^{1/α}−1, so the certificate is exactly ε
	// when the clamp is slack; the float round-trip can land an ulp above,
	// which the min repairs (the analytic bound is ε, not ε+ulp).
	certErr := QuadCertifiedErr(theta, alpha)
	if certErr > maxRelErr {
		certErr = maxRelErr
	}
	q := &QuadTree{
		in:        in,
		maxRelErr: maxRelErr,
		certErr:   certErr,
		theta:     theta,
		levels:    l,
		cell:      span / float64(int32(1)<<l),
		ox:        lo.X,
		oy:        lo.Y,
		leafDim:   int32(1) << l,
		levelOff:  make([]int32, l+1),
		openRad2:  make([]float64, l+1),
		side:      make([]float64, l+1),
		refineFac: math.Pow(1/(1-theta), alpha),
		pl:        NewPathLoss(alpha),
	}
	off := int32(0)
	for lvl := 0; lvl <= l; lvl++ {
		q.levelOff[lvl] = off
		off += (int32(1) << lvl) * (int32(1) << lvl)
		side := q.cell * float64(int32(1)<<(l-lvl))
		q.side[lvl] = side
		or := side * math.Sqrt2 / theta
		q.openRad2[lvl] = or * or
	}
	q.nodes = int(off)
	q.leafOf = make([]int32, n)
	for i, p := range in.pts {
		q.leafOf[i] = q.bin(p)
	}
	q.scratches = &sync.Pool{New: func() any { return q.NewScratch() }}
	return q, nil
}

// bin maps a point to its leaf-local Morton code at level L, clamping
// boundary points into the grid.
func (q *QuadTree) bin(p geom.Point) int32 {
	tx := int32(math.Floor((p.X - q.ox) / q.cell))
	ty := int32(math.Floor((p.Y - q.oy) / q.cell))
	if tx < 0 {
		tx = 0
	} else if tx >= q.leafDim {
		tx = q.leafDim - 1
	}
	if ty < 0 {
		ty = 0
	} else if ty >= q.leafDim {
		ty = q.leafDim - 1
	}
	return MortonEncode(tx, ty)
}

// Instance returns the instance the plan was built over.
func (q *QuadTree) Instance() *Instance { return q.in }

// MaxRelError returns the requested error bound.
func (q *QuadTree) MaxRelError() float64 { return q.maxRelErr }

// CertifiedMaxRelError returns the certified worst-case relative
// interference error (1+θ)^α − 1 ≤ MaxRelError().
func (q *QuadTree) CertifiedMaxRelError() float64 { return q.certErr }

// Levels returns the pyramid depth L (leaves are level L).
func (q *QuadTree) Levels() int { return q.levels }

// Leaves returns the leaf count of the deepest level.
func (q *QuadTree) Leaves() int { return int(q.leafDim) * int(q.leafDim) }

// Nodes returns the total pyramid node count across all levels.
func (q *QuadTree) Nodes() int { return q.nodes }

// Theta returns the opening threshold θ(ε, α).
func (q *QuadTree) Theta() float64 { return q.theta }

// NearDominated reports that the leaf-level opening horizon reaches a
// quarter of the root square's side: the opened-leaf disk then covers
// ≥ π/16 ≈ 20% of the instance, and the walk's exact scans plus pyramid
// overhead measurably undercut plain exact resolution (measured boundary,
// re-validated against the Morton layout: at ε = 0.1
// the n = 65536 walk, horizon/side ≈ 0.34, still runs 1.12× slower than
// exact — down from 1.33× pre-Morton, same sign — while n = 262144,
// horizon/side ≈ 0.17, wins 1.28× more than before; BENCH_quadtree.json).
// It holds for tight ε at small instances (the
// opening radius is ≥ cell·√2/θ ≥ √2/θ units, so a span below ~4√2/θ
// cannot be resolved hierarchically); a session falls back to exact
// resolution when it does. Equivalently, since horizon/side = (√2/θ)/2^L:
// the pyramid needs depth 2^L > 4√2/θ before hierarchy pays.
func (q *QuadTree) NearDominated() bool {
	quarter := q.side[0] / 4
	return q.openRad2[q.levels] >= quarter*quarter
}

// Acquire borrows a pooled scratch for a transient user (one validation);
// pair with Release.
func (q *QuadTree) Acquire() *QuadScratch { return q.scratches.Get().(*QuadScratch) }

// Release returns a scratch borrowed with Acquire.
func (q *QuadTree) Release(sc *QuadScratch) { q.scratches.Put(sc) }

// extendTo reuses the plan for an instance grown by Extend: when every
// appended point falls inside the root square, only the new points are
// binned (O(new), plus an O(n) copy of the old binning); otherwise the
// grown instance rebuilds its plan lazily.
func (q *QuadTree) extendTo(out *Instance) (*QuadTree, bool) {
	n := len(q.in.pts)
	m := len(out.pts)
	side := q.cell * float64(q.leafDim)
	for _, p := range out.pts[n:] {
		if p.X < q.ox || p.Y < q.oy || p.X > q.ox+side || p.Y > q.oy+side {
			return nil, false
		}
	}
	nq := *q
	nq.in = out
	nq.leafOf = make([]int32, m)
	copy(nq.leafOf, q.leafOf)
	for i := n; i < m; i++ {
		nq.leafOf[i] = nq.bin(out.pts[i])
	}
	nq.scratches = &sync.Pool{New: func() any { return nq.NewScratch() }}
	return &nq, true
}

// QuadTree returns the hierarchical plan for the given error bound,
// building and caching it on first use (one plan per distinct ε, read-only
// after build — safe to share across concurrent runs, like the gain
// table).
func (in *Instance) QuadTree(maxRelErr float64) (*QuadTree, error) {
	in.qtMu.Lock()
	defer in.qtMu.Unlock()
	if q, ok := in.qt[maxRelErr]; ok {
		return q, nil
	}
	q, err := newQuadTree(in, maxRelErr)
	if err != nil {
		return nil, err
	}
	if in.qt == nil {
		in.qt = make(map[float64]*QuadTree)
	}
	if len(in.qt) >= maxFarPlans {
		//lint:ignore determinism eviction picks which plan is rebuilt, never its values; plans are pure functions of (instance, ε)
		for eps := range in.qt {
			delete(in.qt, eps)
			break
		}
	}
	in.qt[maxRelErr] = q
	return q, nil
}

// quadNode is one pyramid node's per-slot aggregates, packed so a walk
// visit reads one 32-byte record instead of four parallel arrays. cenX and
// cenY hold the raw Σ P·coord sums during the bottom-up pass and the
// normalized power-weighted centroid after it; pmax is the strongest
// single power below the node, mass the total.
type quadNode struct {
	cenX, cenY float64
	pmax, mass float64
}

// QuadScratch is the per-slot mutable state of a quadtree plan: the
// epoch-stamped pyramid records and child-occupancy masks, per-level
// active lists, and the leaf bucketing for exact scans. One scratch
// belongs to one concurrent user; all buffers are allocated once at
// NewScratch so the per-slot Accumulate/Resolve cycle allocates nothing.
// Resolve and LinkSINR keep their DFS stacks on the
// goroutine stack, so concurrent listeners may share one scratch
// read-only.
type QuadScratch struct {
	q     *QuadTree
	epoch uint32
	// Per-node records and child masks (global pyramid ids), valid where
	// stamp == epoch. Bit c of kids[g] is set iff child c of node g was
	// stamped this epoch with nonzero mass — exactly the children a walk
	// descends into — so the walks filter children without touching the
	// children's stamps or records. Leaves' masks are never read.
	stamp []uint32
	node  []quadNode
	kids  []uint8
	// active lists each level's occupied nodes (local Morton ids) in
	// first-touch order.
	active [][]int32
	// Leaf bucketing for exact scans (leaf-local Morton ids), plus streaming copies of the bucketed senders'
	// coordinates and powers (sx/sy/sp, bucket order): the leaf scans read
	// these sequentially instead of gathering through order → txs → pts.
	start []int32
	fill  []int32
	order []int32
	sx    []float64
	sy    []float64
	sp    []float64
	// senderMark/markEpoch implement the zero-alloc duplicate-sender check
	// of SINRFeasibleFarBuf (stamped per call, never cleared).
	senderMark []uint32
	markEpoch  uint32
}

// NewScratch allocates per-slot state for the plan, for a long-lived user
// (an engine).
func (q *QuadTree) NewScratch() *QuadScratch {
	n := len(q.in.pts)
	leaves := q.Leaves()
	active := make([][]int32, q.levels+1)
	for lvl := range active {
		capL := 1 << (2 * lvl)
		if n < capL {
			capL = n
		}
		active[lvl] = make([]int32, 0, capL)
	}
	return &QuadScratch{
		q:          q,
		stamp:      make([]uint32, q.nodes),
		node:       make([]quadNode, q.nodes),
		kids:       make([]uint8, q.nodes),
		active:     active,
		start:      make([]int32, leaves),
		fill:       make([]int32, leaves),
		order:      make([]int32, n),
		sx:         make([]float64, n),
		sy:         make([]float64, n),
		sp:         make([]float64, n),
		senderMark: make([]uint32, n),
	}
}

// beginEpoch advances the scratch epoch, invalidating all stamps on wrap.
func (sc *QuadScratch) beginEpoch() uint32 {
	sc.epoch++
	if sc.epoch == 0 { // uint32 wrap: invalidate all stamps once
		for i := range sc.stamp {
			sc.stamp[i] = 0
		}
		sc.epoch = 1
	}
	return sc.epoch
}

// Accumulate folds the slot's sender set into the pyramid in one
// bottom-up pass — leaf aggregates and bucketing in tx order, then each
// level into its parents in first-touch order (setting the parents' child
// masks), then one centroid normalization sweep over the active nodes:
// O(len(txs) + occupied nodes), allocation-free. It must run (serially)
// before Resolve/LinkSINR for the same sender set.
//
//sinr:hotpath
func (sc *QuadScratch) Accumulate(txs []Tx) {
	q := sc.q
	ep := sc.beginEpoch()
	l := q.levels
	for lvl := range sc.active {
		sc.active[lvl] = sc.active[lvl][:0]
	}
	leafOff := q.levelOff[l]
	leaves := sc.active[l]
	for i := range txs {
		t := q.leafOf[txs[i].Sender]
		g := leafOff + t
		nd := &sc.node[g]
		if sc.touch(g, ep) {
			sc.fill[t] = 0
			//lint:ignore hotpathalloc leaves aliases preallocated sc.active[l]; occupied leaves never exceed its capacity
			leaves = append(leaves, t)
		}
		nd.fold(txs[i].Power, q.in.pts[txs[i].Sender])
		sc.fill[t]++
	}
	sc.active[l] = leaves
	ofs := int32(0)
	for _, t := range leaves {
		sc.start[t] = ofs
		ofs += sc.fill[t]
		sc.fill[t] = 0
	}
	for i := range txs {
		t := q.leafOf[txs[i].Sender]
		idx := sc.start[t] + sc.fill[t]
		sc.order[idx] = int32(i)
		pt := q.in.pts[txs[i].Sender]
		sc.sx[idx] = pt.X
		sc.sy[idx] = pt.Y
		sc.sp[idx] = txs[i].Power
		sc.fill[t]++
	}
	// Bottom-up fold: raw sums propagate so a parent's centroid is the
	// exact power-weighted centroid of every sender below it. Morton
	// layout makes the parent one shift: local id t>>2.
	for lvl := l; lvl > 0; lvl-- {
		childOff := q.levelOff[lvl]
		parentOff := q.levelOff[lvl-1]
		plist := sc.active[lvl-1]
		for _, t := range sc.active[lvl] {
			pl := t >> 2
			pg := parentOff + pl
			if sc.touch(pg, ep) {
				//lint:ignore hotpathalloc plist aliases preallocated sc.active[lvl-1]; occupied parents never exceed its capacity
				plist = append(plist, pl)
			}
			sc.foldChild(pg, childOff+t, t)
		}
		sc.active[lvl-1] = plist
	}
	for lvl := 0; lvl <= l; lvl++ {
		sc.normalize(q.levelOff[lvl], sc.active[lvl])
	}
}

// touch reports whether node g is first touched this epoch, stamping it
// and zeroing its record and child mask if so.
func (sc *QuadScratch) touch(g int32, ep uint32) bool {
	if sc.stamp[g] == ep {
		return false
	}
	sc.stamp[g] = ep
	sc.node[g] = quadNode{}
	sc.kids[g] = 0
	return true
}

// fold adds one sender of power p at pt to a leaf record.
func (nd *quadNode) fold(p float64, pt geom.Point) {
	nd.mass += p
	nd.cenX += p * pt.X
	nd.cenY += p * pt.Y
	if p > nd.pmax {
		nd.pmax = p
	}
}

// foldChild adds the raw sums of child record g (local id t) into its
// parent record pg and, when the child carries mass, sets its bit in the
// parent's child mask — the filter the walks apply before a push.
func (sc *QuadScratch) foldChild(pg, g, t int32) {
	p, c := &sc.node[pg], &sc.node[g]
	p.mass += c.mass
	p.cenX += c.cenX
	p.cenY += c.cenY
	if c.pmax > p.pmax {
		p.pmax = c.pmax
	}
	if c.mass != 0 {
		sc.kids[pg] |= 1 << uint(t&3)
	}
}

// normalize turns the raw coordinate sums of one level's active nodes
// (local ids ts, level offset off) into centroids.
func (sc *QuadScratch) normalize(off int32, ts []int32) {
	for _, t := range ts {
		nd := &sc.node[off+t]
		if m := nd.mass; m > 0 {
			nd.cenX /= m
			nd.cenY /= m
		}
	}
}

// quadStackCap bounds the DFS stack: a walk holds at most 3 pending
// siblings per level plus the 4 children just pushed.
const quadStackCap = 4*maxQuadLevels + 4

// quadFrame is one pending node of a proximity-first walk: its level, its
// global pyramid id g and its grid coordinates (x, y) at that level. The
// coordinates ride along so an opened node places its midlines without
// decoding its Morton id. The level offsets (4^ℓ−1)/3 satisfy
// off(ℓ+1) = 4·off(ℓ) + 1, so child c ∈ 0..3 of global node g is global
// node 4g+1+c — no offset table on the way down.
type quadFrame struct {
	lvl, g, x, y int32
}

// Resolve computes channel reception at listener v against the
// accumulated set: the strongest sender best (exact — see the refinement
// note in the package comment), its exact received power bestRP, and the
// total received power with far nodes aggregated within the certified ε.
// saturated reports a sender co-located with the listener; best is -1 when
// no sender is audible. The DFS stack lives on the goroutine stack, so
// concurrent listeners share the scratch safely.
//
// Unlike LinkSINR's fixed child order, Resolve descends proximity-first:
// at each opened node, the child quadrant containing the listener is
// visited first, then its lateral neighbors, then the diagonal. The walk
// therefore beelines to the listener's own leaf and seeds bestRP with the
// likely winner before touching the rest of the pyramid — without it, the
// "could this node hide the winner" refinement compares against a
// near-zero bestRP across the early quadrants and opens nearly everything,
// degenerating the walk toward an exact scan. The order depends only on
// the listener's coordinates and the static node geometry, so runs stay
// deterministic and worker-count independent.
//
//sinr:hotpath
func (sc *QuadScratch) Resolve(v int) (best int, bestRP, total float64, saturated bool) {
	if sc.stamp[0] != sc.epoch {
		return -1, 0, 0, false // no senders accumulated
	}
	q := sc.q
	pl := q.pl
	refine := q.refineFac
	pv := q.in.pts[v]
	px, py := pv.X, pv.Y
	l := int32(q.levels)
	leafOff := q.levelOff[l]
	b := int32(-1)
	var stack [quadStackCap]quadFrame
	top := 1 // stack[0] is the root
	for top > 0 {
		top--
		f := stack[top]
		nd := &sc.node[f.g]
		dx := px - nd.cenX
		dy := py - nd.cenY
		d2 := dx*dx + dy*dy
		if d2 >= q.openRad2[f.lvl] {
			gc := 1 / pl.Sq(d2)
			if nd.pmax*gc*refine <= bestRP {
				total += nd.mass * gc
				continue
			}
			// The node could hide a sender outreceiving the best exact
			// candidate so far: open it (the bound only shrinks as best
			// grows, so nodes already accepted stay safe).
		}
		if f.lvl == l {
			t := f.g - leafOff
			lo := sc.start[t]
			hi := lo + sc.fill[t]
			for si := lo; si < hi; si++ {
				ddx := px - sc.sx[si]
				ddy := py - sc.sy[si]
				sd2 := ddx*ddx + ddy*ddy
				if sd2 == 0 {
					return -1, 0, 0, true
				}
				rp := sc.sp[si] / pl.Sq(sd2)
				total += rp
				if rp > bestRP {
					bestRP = rp
					b = sc.order[si]
				}
			}
			continue
		}
		// Children that hold senders, nearest popped first: the mask drops
		// empty quadrants before they cost a stack round-trip.
		kids := sc.kids[f.g]
		near := q.nearChild(f, px, py)
		for k := int32(3); k >= 0; k-- {
			if c := near ^ k; kids>>uint(c)&1 != 0 {
				stack[top] = f.child(c)
				top++
			}
		}
	}
	return int(b), bestRP, total, false
}

// nearChild returns the child c ∈ 0..3 of the opened node f nearest to
// (px, py): the side of each of f's midlines the point falls on, clamped
// outside the node by the comparison itself. A proximity-first walk pushes
// the children c = near^3, near^2, near^1, near, so they pop nearest
// first, then the x-neighbor, the y-neighbor and the diagonal.
func (q *QuadTree) nearChild(f quadFrame, px, py float64) int32 {
	cside := q.side[f.lvl+1]
	var near int32
	if px >= q.ox+float64(2*f.x+1)*cside {
		near = 1
	}
	if py >= q.oy+float64(2*f.y+1)*cside {
		near |= 2
	}
	return near
}

// child returns child c ∈ 0..3 of f: bit 0 of c is the x half, bit 1 the
// y half, as in the Morton id.
func (f quadFrame) child(c int32) quadFrame {
	return quadFrame{lvl: f.lvl + 1, g: 4*f.g + 1 + c, x: 2*f.x | c&1, y: 2*f.y | c>>1}
}

// LinkSINR returns the approximate SINR of link l whose sender transmits
// with power pu among the accumulated set — exact signal, leaf-exact
// interference inside the opening horizon, aggregated nodes beyond it
// (never refined — no winner is sought). The link's own sender is excluded
// exactly in opened leaves and by mass subtraction in the aggregated
// ancestor that absorbs it; txs must contain at most one entry
// per sender (the per-slot schedule invariant). The exact SINR lies within
// [·(1−ε), ·(1+ε)] of the returned value for ε = CertifiedMaxRelError.
//
//sinr:hotpath
func (sc *QuadScratch) LinkSINR(txs []Tx, l Link, pu float64) float64 {
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
		nd := &sc.node[g]
		dx := pv.X - nd.cenX
		dy := pv.Y - nd.cenY
		d2 := dx*dx + dy*dy
		if d2 >= q.openRad2[lvl] {
			m := nd.mass
			if t == ul>>(2*uint(lv-lvl)) {
				// The link's own sender sits under this aggregated node:
				// remove its share of the mass (the centroid stays inside
				// the square, so the error bound is unaffected).
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

// pushQuadrant pushes the occupied children of the opened node (lvl, t) in
// reverse so they pop in quadrant order (0,0), (1,0), (0,1), (1,1) — the
// same spatial sequence the row-major walk used and the oracle lockstep
// transcribes (its recursion skips empty nodes at entry; filtering by the
// child mask before the push visits the same nodes in the same order). It
// returns the new stack top.
func (sc *QuadScratch) pushQuadrant(stack *[quadStackCap]int64, top, lvl int, t int32) int {
	kids := sc.kids[sc.q.levelOff[lvl]+t]
	clvl := int64(lvl+1) << 32
	base := t << 2
	for c := int32(3); c >= 0; c-- {
		if kids>>uint(c)&1 != 0 {
			stack[top] = clvl | int64(base|c)
			top++
		}
	}
	return top
}

// distinctSenders rejects a link set with a repeated sender: the pyramid
// aggregates each sender's power exactly once, so a sender appearing on
// two links would be mis-excluded (and could overflow the node-sized
// bucketing). The exact check sums duplicates fine, so reject them here
// rather than diverge silently — via the stamped mark array, keeping the
// validation path allocation-free. Per-slot schedules satisfy the contract
// by construction (one up-link per node per slot).
func (sc *QuadScratch) distinctSenders(links []Link) error {
	sc.markEpoch++
	if sc.markEpoch == 0 {
		for i := range sc.senderMark {
			sc.senderMark[i] = 0
		}
		sc.markEpoch = 1
	}
	for _, l := range links {
		if sc.senderMark[l.From] == sc.markEpoch {
			return ErrDuplicateSender
		}
		sc.senderMark[l.From] = sc.markEpoch
	}
	return nil
}

// SINRFeasibleFarBuf is the far-field counterpart of SINRFeasibleBuf: it
// reports whether every link in links, transmitting concurrently with the
// given powers, clears the SINR threshold β under the (1±ε) guard band the
// approximation admits at the cut. The check is complete — a schedule the
// exact physics accepts is never rejected, because an exactly-feasible
// link's approximate SINR is at least β/(1+ε) — and ε-sound: a rejection
// certifies exact infeasibility, while an acceptance certifies exact SINR
// ≥ β·(1−ε)/(1+ε) on every link. Nothing flips silently: the band is fixed
// by q.CertifiedMaxRelError and ε = 0 (q == nil) is the exact check. sc
// is the caller's scratch of q (NewScratch, or Acquire for a transient
// user); it is unused when q is nil.
//
//sinr:hotpath
func (in *Instance) SINRFeasibleFarBuf(links []Link, powers []float64, q *QuadTree, scratch []Tx, sc *QuadScratch) (bool, error) {
	if q == nil {
		return in.SINRFeasibleBuf(links, powers, scratch)
	}
	if len(links) != len(powers) {
		return false, ErrMismatchedLengths
	}
	if err := sc.distinctSenders(links); err != nil {
		return false, err
	}
	txs := scratch[:0]
	if cap(txs) < len(links) {
		//lint:ignore hotpathalloc cold capacity-miss fallback only; a right-sized caller scratch never reaches this make
		txs = make([]Tx, 0, len(links))
	}
	for i, l := range links {
		//lint:ignore hotpathalloc cannot grow: capacity reserved by the check above; steady state pinned by TestSINRFeasibleFarBufZeroAlloc
		txs = append(txs, Tx{Sender: l.From, Power: powers[i]})
	}
	sc.Accumulate(txs)
	cut := in.params.Beta - 1e-9
	band := 1 + q.certErr
	for i, l := range links {
		if sc.LinkSINR(txs, l, powers[i])*band < cut {
			return false, nil
		}
	}
	return true, nil
}
