package sinr

import (
	"fmt"

	"sinrconn/internal/geom"
)

// MoveTo returns a new Instance in which the nodes in moved have been
// relocated to the corresponding positions in to (moved[i] → to[i]), under
// the same physical parameters. Like Extend, it reuses the already-built
// gain table: entries between two unmoved nodes are copied bit-identically
// (same deterministic function of the same two points) and only the rows and
// columns touching a moved node are recomputed — O(n·k) path-loss
// evaluations for k movers instead of O(n²), plus an n² copy into a fresh
// exact table (a parent grown by Extend is read at its own stride). This
// is the mobility fast path of the churn engine.
//
// Far-field plans do NOT ride along: a move changes the mover's bin, and
// re-binning in place would have to subtract the old position from shared
// per-cell aggregates. Plans are instead rebuilt lazily on first use of the
// new instance — the churn driver amortizes that over the events between
// rebuilds.
//
// Indices are preserved: node v in the result is node v in the input. The
// input slices are not deeply copied beyond the point array itself.
func (in *Instance) MoveTo(moved []int, to []geom.Point) (*Instance, error) {
	if len(moved) != len(to) {
		return nil, fmt.Errorf("sinr: MoveTo: %d indices but %d positions", len(moved), len(to))
	}
	n := len(in.pts)
	seen := make(map[int]bool, len(moved))
	for _, v := range moved {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("sinr: MoveTo: node %d out of range", v)
		}
		if seen[v] {
			return nil, fmt.Errorf("sinr: MoveTo: node %d moved twice in one step", v)
		}
		seen[v] = true
	}
	pts := make([]geom.Point, n)
	copy(pts, in.pts)
	for i, v := range moved {
		pts[v] = to[i]
	}
	out, err := NewInstance(pts, in.params)
	if err != nil {
		return nil, err
	}
	if len(moved) == 0 {
		return out, nil
	}
	old, stride, built := in.gainTableIfBuilt()
	if !built || old == nil {
		return out, nil // lazy path; size unchanged, so the budget verdict is too
	}
	g := make([]float64, n*n)
	for v := 0; v < n; v++ {
		copy(g[v*n:(v+1)*n], old[v*stride:v*stride+n])
	}
	alpha := in.params.Alpha
	for _, v := range moved {
		pv := pts[v]
		row := g[v*n : (v+1)*n]
		for u := 0; u < n; u++ {
			e := 1 / PowAlphaSq(pv.DistSq(pts[u]), alpha)
			row[u] = e
			g[u*n+v] = e // symmetric column entry
		}
	}
	out.seedGainTable(g, n, nil)
	return out, nil
}

// Shrink returns a new Instance over in's points with the removed indices
// deleted, preserving the relative order of the survivors. The result is a
// *reindexed* world: survivor j in the result corresponds to the j-th
// surviving input index; the returned mapping gives old→new (length n, −1
// for removed nodes). Callers that hold trees over old indices must remap —
// the churn driver does this when it compacts a long-lived session whose
// dead fraction has grown past its budget.
//
// The gain table is reused by block copy into a fresh exact table: every
// surviving pair's entry is copied bit-identically; nothing is recomputed. Duplicate entries in
// removed are tolerated (churn traces report the same death twice); removing
// every node is an error.
func (in *Instance) Shrink(removed []int) (*Instance, []int, error) {
	n := len(in.pts)
	dead := make(map[int]bool, len(removed))
	for _, v := range removed {
		if v < 0 || v >= n {
			return nil, nil, fmt.Errorf("sinr: Shrink: node %d out of range", v)
		}
		dead[v] = true
	}
	if len(dead) >= n {
		return nil, nil, fmt.Errorf("sinr: Shrink: all %d nodes removed", n)
	}
	oldToNew := make([]int, n)
	survivors := make([]int, 0, n-len(dead))
	for v := 0; v < n; v++ {
		if dead[v] {
			oldToNew[v] = -1
			continue
		}
		oldToNew[v] = len(survivors)
		survivors = append(survivors, v)
	}
	m := len(survivors)
	pts := make([]geom.Point, m)
	for j, v := range survivors {
		pts[j] = in.pts[v]
	}
	out, err := NewInstance(pts, in.params)
	if err != nil {
		return nil, nil, err
	}
	old, stride, built := in.gainTableIfBuilt()
	if !built || old == nil {
		return out, oldToNew, nil
	}
	g := make([]float64, m*m)
	for j, v := range survivors {
		row := g[j*m : (j+1)*m]
		oldRow := old[v*stride : v*stride+n]
		for i, u := range survivors {
			row[i] = oldRow[u]
		}
	}
	out.seedGainTable(g, m, nil)
	return out, oldToNew, nil
}
