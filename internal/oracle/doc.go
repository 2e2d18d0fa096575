// Package oracle is the deliberately naive, obviously-correct reference
// implementation of the SINR model — the differential oracle the fast
// physics kernel (internal/sinr) and the simulator (internal/sim) are
// tested against.
//
// Everything here is written for transparency, not speed: distances via
// math.Hypot, path loss via math.Pow, O(n²) loops, no caching, no pooling,
// no gain tables, no memoized link constants. The package must stay free of
// any kernel/pool/caching code forever, so that when an optimization PR
// breaks the physics, the disagreement with this package is the proof.
//
// The package imports internal/phys and internal/tree for their plain data
// types only (Params, Link, Tx, TimedLink) — it never imports internal/sinr
// at all, and it never calls a method on tree.BiTree or the fast path-loss
// helpers phys.PowAlpha/PowAlphaSq (naive math.Pow only). All computations
// take raw point slices. The oraclepurity analyzer (internal/lint) enforces
// both rules mechanically.
//
// For the far-field engine (quadtree.go) the same rule holds with one
// refinement: expressions that *partition* the computation — leaf binning,
// the opening comparison and the centroid folds it reads — are transcribed from the kernel expression for
// expression (a flipped decision swaps an exact branch for an
// ε-approximate one, which no tolerance covers), while the physics inside
// each branch stays naive.
package oracle
