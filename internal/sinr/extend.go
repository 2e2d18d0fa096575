package sinr

import "sinrconn/internal/geom"

// Extend returns a new Instance over in's points followed by extra, under
// the same physical parameters, reusing in's already-built gain table: the
// old n×n block is copied (bit-identical — every entry is the same
// deterministic function of the same two points) and only the rows and
// columns involving the new points are computed. This is the join fast
// path: a session that grows by k nodes computes O((n+k)·k) new gain
// entries and copies the n² old ones, instead of re-deriving all (n+k)².
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
	old, built := in.gainTableIfBuilt()
	if !built || old == nil || uint64(m)*uint64(m)*8 > maxGainTableBytes {
		// Parent table never built (a far-field-only session has no use
		// for it — forcing the O(n²) fill here would dwarf the join fast
		// path), disabled by the memory budget, or the grown table would
		// bust the budget: fall back to the lazy path — identical values,
		// computed on demand by whoever first needs them.
		return out, nil
	}
	g := make([]float64, m*m)
	alpha := in.params.Alpha
	for v := 0; v < n; v++ {
		// Old receiver row: copy the old senders, compute the new ones.
		row := g[v*m : (v+1)*m]
		copy(row[:n], old[v*n:(v+1)*n])
		pv := pts[v]
		for u := n; u < m; u++ {
			row[u] = 1 / PowAlphaSq(pv.DistSq(pts[u]), alpha)
		}
	}
	for v := n; v < m; v++ {
		// New receiver row: everything is new.
		row := g[v*m : (v+1)*m]
		pv := pts[v]
		for u := 0; u < m; u++ {
			row[u] = 1 / PowAlphaSq(pv.DistSq(pts[u]), alpha)
		}
	}
	out.gainOnce.Do(func() {})
	out.gain = g
	out.markGainResolved()
	return out, nil
}
