package sinr

import (
	"sync/atomic"

	"sinrconn/internal/geom"
)

// gainHeadroom sets the spare space a grown gain table reserves: a table
// that Extend allocates for m nodes has row stride m + m/gainHeadroom, so
// about m/gainHeadroom further single-node joins grow it in place before
// the next copy.
const gainHeadroom = 8

// grownStride returns the row stride of a table Extend allocates for m
// nodes: m plus headroom, capped so that stride²·8 stays within
// maxGainTableBytes. The caller has checked that m itself fits.
func grownStride(m int) int {
	s := m + m/gainHeadroom
	for uint64(s)*uint64(s)*8 > maxGainTableBytes {
		s--
	}
	return s
}

// Extend returns a new Instance over in's points followed by extra, under
// the same physical parameters, reusing in's already-built gain table. This
// is the join fast path: a session that grows by k nodes computes only the
// O((n+k)·k) gain entries involving a new point, instead of re-deriving all
// (n+k)², and the old n×n block is never recomputed (every entry is the
// same deterministic function of the same two points, so it is
// bit-identical).
//
// Where the old block lives depends on in's table. A table built by the
// first use of an instance, by MoveTo or by Shrink is exact n×n; Extend
// copies it into a fresh table with spare rows and columns (gainHeadroom)
// and computes the new entries there. A table with enough spare space is
// grown in place: the new rows and columns are written into the spare
// space, and the old block is neither copied nor touched. The spare space
// belongs to whichever child of in claims it first — a compare-and-swap of
// the store's node count from n to n+k — so concurrent Extends of one
// parent are safe; the others copy, as from an exact table. The parent
// itself never reads past its own n rows and columns, so the child's
// writes are invisible to it.
//
// The geometry around it (the caller's minimum-distance check, core.Join's
// ladder bound, a lazy Delta) sorts the n+k points instead of scanning all
// pairs; see geom.MinDist and geom.MaxDist.
//
// The caller keeps ownership of the geometry contract: Extend performs no
// normalization check (joins must not move existing nodes, so the caller
// validates the merged set). The input slices are not copied deeply; as
// with NewInstance, points must not be mutated afterwards.
func (in *Instance) Extend(extra []geom.Point) (*Instance, error) {
	n := len(in.pts)
	m := n + len(extra)
	pts := make([]geom.Point, 0, m)
	pts = append(append(pts, in.pts...), extra...)
	out, err := NewInstance(pts, in.params)
	if err != nil {
		return nil, err
	}
	if len(extra) == 0 {
		return out, nil
	}
	// Far-field plans ride along: a plan whose root square still covers the
	// grown point set bins only the new points (O(k)); plans the growth
	// escapes are rebuilt lazily on first use.
	in.qtMu.Lock()
	//lint:ignore determinism per-ε plan carry-over writes into a map keyed by ε; iteration order cannot reach results
	for eps, q := range in.qt {
		if nq, ok := q.extendTo(out); ok {
			if out.qt == nil {
				out.qt = make(map[float64]*QuadTree, len(in.qt))
			}
			out.qt[eps] = nq
		}
	}
	in.qtMu.Unlock()
	old, oldStride, built := in.gainTableIfBuilt()
	if !built || old == nil || uint64(m)*uint64(m)*8 > maxGainTableBytes {
		// Parent table never built (a far-field-only session has no use
		// for it — forcing the O(n²) fill here would dwarf the join fast
		// path), disabled by the memory budget, or the grown table would
		// bust the budget: fall back to the lazy path — identical values,
		// computed on demand by whoever first needs them.
		return out, nil
	}
	g, stride, nodes := old, oldStride, in.gainNodes
	if nodes == nil || m > stride || !nodes.CompareAndSwap(int64(n), int64(m)) {
		// No spare space, too little of it, or a sibling claimed it:
		// copy the old block into a fresh table with headroom.
		stride = grownStride(m)
		g = make([]float64, stride*stride)
		for v := 0; v < n; v++ {
			copy(g[v*stride:v*stride+n], old[v*oldStride:v*oldStride+n])
		}
		nodes = new(atomic.Int64)
		nodes.Store(int64(m))
	}
	alpha := in.params.Alpha
	for v := n; v < m; v++ {
		// New receiver row: everything is new.
		row := g[v*stride : v*stride+m]
		pv := pts[v]
		for u := range row {
			row[u] = 1 / PowAlphaSq(pv.DistSq(pts[u]), alpha)
		}
	}
	for v := 0; v < n; v++ {
		// Old receiver row, new senders: the transposed entries, bitwise
		// equal (TestGainTableSymmetric).
		row := g[v*stride : v*stride+m]
		for u := n; u < m; u++ {
			row[u] = g[u*stride+v]
		}
	}
	out.seedGainTable(g, stride, nodes)
	return out, nil
}
