package sinr

// Frontier-sharing batch resolution: Resolve for a group of co-located
// listeners that provably take the same open/descend decisions, walking
// the pyramid ONCE for the whole group instead of once per listener.
//
// Which listeners can share a walk? Resolve's traversal shape depends on
// the listener only through (a) the accept/refine outcome at each node —
// per-listener, handled below — and (b) the nearest-child predicates
// pv.X ≥ ox + (2x+1)·side(lvl+1) (and the y analog), which fix the order
// children are pushed. Every such midline equals ox + j·cell for an
// integer j: side(lvl+1) = cell·2^m exactly (power-of-two scaling is
// exact), so float64(2x+1)·side(lvl+1) and float64(j)·cell with
// j = (2x+1)·2^m round the same real product to the same float. Listeners
// with equal edgeClass on both axes (the plan's batchClass key) therefore
// agree on EVERY midline comparison at every level — their pushed child
// orders are identical trees, and a shared DFS visits each listener's
// nodes in exactly its solo order. TestListenerBatchDriftGate pins the
// outputs bit-identical to per-listener Resolve.
//
// The shared walk keeps one frame stack (same geometry as Resolve's) plus
// a survivor arena: each frame carries the segment of listeners still
// descending through its node. At a popped frame, each survivor takes the
// solo accept/refine test — acceptors fold the aggregate and leave the
// segment; refiners and near listeners survive into the children, which
// all share one new survivor segment (a listener that opens a node visits
// all its occupied children, exactly like solo Resolve). The arena is
// stack-disciplined: a frame's free watermark restores the arena past its
// siblings' dead segments, bounding it at one segment per level. Once a
// segment thins to soloTailMax survivors or fewer, each survivor leaves
// the shared frontier and finishes the subtree through Resolve's own walk
// (QuadScratch.walk), seeded at that frame with its accumulators.

// maxFarBatch caps the listeners walked per shared frontier: big enough
// to amortize the walk, small enough that the per-listener state stays in
// L1. ResolveBatch slices larger groups internally.
const maxFarBatch = 32

// BatchSink consumes per-listener results from ResolveBatch, in batch
// order. The arguments are exactly Resolve's returns for listener v.
type BatchSink interface {
	DeliverFar(v, best int, bestRP, total float64, saturated bool)
}

// batchFrame is one node of the shared DFS: the node, the survivor
// segment bs.seg[lo:hi] descending through it, and the arena watermark to
// restore when the frame pops (its siblings' subtrees are complete, so
// everything above free is dead).
type batchFrame struct {
	quadFrame
	lo, hi int32
	free   int32
}

// BatchState is the preallocated walk state for ResolveBatch: one frame
// stack, the survivor arena, and per-listener accumulators for the
// current chunk. One BatchState belongs to one concurrent user (engines
// keep one per worker); build with QuadTree.NewBatchState.
type BatchState struct {
	frames [quadStackCap]batchFrame
	seg    []int32
	best   [maxFarBatch]int32
	bestRP [maxFarBatch]float64
	total  [maxFarBatch]float64
	sat    [maxFarBatch]bool
	px     [maxFarBatch]float64
	py     [maxFarBatch]float64
}

// NewBatchState allocates walk state for ResolveBatch against this plan.
func (q *QuadTree) NewBatchState() *BatchState {
	return &BatchState{seg: make([]int32, (q.levels+2)*maxFarBatch)}
}

// ResolveBatch resolves reception at every listener in vs through one
// shared frontier per chunk of maxFarBatch, delivering each listener's
// Resolve-identical result to sink in vs order. All of vs must share one
// predicate class (one run of the plan's BatchSpec order) — the engine
// slices runs out of BatchSpec; arbitrary groupings would shear the
// shared child order away from the solo walks. Allocation-free.
//sinr:hotpath
func (sc *QuadScratch) ResolveBatch(bs *BatchState, vs []int32, sink BatchSink) {
	for base := 0; base < len(vs); base += maxFarBatch {
		end := base + maxFarBatch
		if end > len(vs) {
			end = len(vs)
		}
		sc.resolveChunk(bs, vs[base:end], sink)
	}
}

// resolveChunk runs one shared DFS for up to maxFarBatch listeners.
//sinr:hotpath
func (sc *QuadScratch) resolveChunk(bs *BatchState, chunk []int32, sink BatchSink) {
	q := sc.q
	in := q.in
	pl := q.pl
	l := int32(q.levels)
	if sc.stamp[0] != sc.epoch {
		for _, v := range chunk {
			sink.DeliverFar(int(v), -1, 0, 0, false)
		}
		return
	}
	k := int32(len(chunk))
	for ci := int32(0); ci < k; ci++ {
		p := in.pts[chunk[ci]]
		bs.px[ci], bs.py[ci] = p.X, p.Y
		bs.best[ci] = -1
		bs.bestRP[ci], bs.total[ci] = 0, 0
		bs.sat[ci] = false
		bs.seg[ci] = ci
	}
	bs.frames[0] = batchFrame{lo: 0, hi: k, free: k}
	top := 1
	for top > 0 {
		top--
		fr := bs.frames[top]
		segTop := fr.free
		g := fr.g
		t := g - q.levelOff[fr.lvl] // leaf-local id, read at leaves only
		nd := sc.node[g]
		orad := q.openRad2[fr.lvl]
		leaf := fr.lvl == l
		ns := int32(0)
		for idx := fr.lo; idx < fr.hi; idx++ {
			ci := bs.seg[idx]
			if bs.sat[ci] {
				continue
			}
			dx := bs.px[ci] - nd.cenX
			dy := bs.py[ci] - nd.cenY
			d2 := dx*dx + dy*dy
			if d2 >= orad {
				gc := 1 / pl.Sq(d2)
				if nd.pmax*gc*q.refineFac <= bs.bestRP[ci] {
					bs.total[ci] += nd.mass * gc
					continue
				}
			}
			if leaf {
				pxci := bs.px[ci]
				pyci := bs.py[ci]
				for si := sc.start[t]; si < sc.start[t]+sc.fill[t]; si++ {
					ddx := pxci - sc.sx[si]
					ddy := pyci - sc.sy[si]
					sd2 := ddx*ddx + ddy*ddy
					if sd2 == 0 {
						// Solo Resolve returns (-1, 0, 0, true) on the
						// spot; the batch flags the listener and discards
						// its accumulators at delivery.
						bs.sat[ci] = true
						break
					}
					rp := sc.sp[si] / pl.Sq(sd2)
					bs.total[ci] += rp
					if rp > bs.bestRP[ci] {
						bs.bestRP[ci] = rp
						bs.best[ci] = sc.order[si]
					}
				}
				continue
			}
			bs.seg[segTop+ns] = ci
			ns++
		}
		if leaf || ns == 0 {
			continue
		}
		if ns <= soloTailMax {
			// Thin segment: the shared walk's per-survivor indirection now
			// costs more than the node-metadata amortization buys, and deep
			// frames are where the walk spends its time (co-batched
			// listeners diverge near their own leaves). Each survivor
			// finishes the subtree through Resolve's own walk instead —
			// register accumulators, no segment copies. Per-listener fold
			// order is the listener's solo DFS order either way (the
			// predicate-class proof above makes the child order
			// listener-independent), so the results stay bit-identical.
			for idx := segTop; idx < segTop+ns; idx++ {
				ci := bs.seg[idx]
				bs.best[ci], bs.bestRP[ci], bs.total[ci], bs.sat[ci] = sc.walk(bs.px[ci], bs.py[ci], fr.quadFrame, bs.best[ci], bs.bestRP[ci], bs.total[ci])
			}
			continue
		}
		// Any survivor supplies the shared nearest-child predicates (one
		// predicate class per chunk — see the package comment's proof).
		p0 := bs.seg[segTop]
		kids := sc.kids[g]
		near := q.nearChild(fr.quadFrame, bs.px[p0], bs.py[p0])
		for k := int32(3); k >= 0; k-- {
			if c := near ^ k; kids>>uint(c)&1 != 0 {
				bs.frames[top] = batchFrame{quadFrame: fr.child(c), lo: segTop, hi: segTop + ns, free: segTop + ns}
				top++
			}
		}
	}
	for ci := int32(0); ci < k; ci++ {
		if bs.sat[ci] {
			sink.DeliverFar(int(chunk[ci]), -1, 0, 0, true)
		} else {
			sink.DeliverFar(int(chunk[ci]), int(bs.best[ci]), bs.bestRP[ci], bs.total[ci], false)
		}
	}
}

// soloTailMax is the survivor count at or under which resolveChunk stops
// sharing the frontier and lets each survivor finish the subtree through
// the solo walk. Measured on the n = 262144 bench geometry (single CPU):
// the shared walk only pays while essentially the whole chunk survives —
// the top levels, where one metadata load serves 32 listeners — and loses
// to the solo loop's register accumulators as soon as the segment thins
// (swept 8/16/31: ε = 0.5 slot 8.8 s / 7.9 s / 7.6 s against 7.1–7.5 s
// solo). 31 keeps the shared top and tails out at the first split.
const soloTailMax = 31
