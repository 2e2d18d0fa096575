package sinr

// The physics kernel: the shared fast path every SINR computation in this
// repository funnels through. Three layers, from cheapest to most general:
//
//  1. PowAlpha / PowAlphaSq — path loss d^α without math.Pow when α (or 2α)
//     is a small integer. The default α = 3 costs three multiplies and one
//     hardware sqrt from a *squared* distance, skipping both math.Pow and
//     the math.Hypot in geom.Point.Dist.
//  2. The lazily built O(n²) gain table caching d(u,v)^{-α} for every node
//     pair, so per-slot channel resolution and affectance sums are table
//     lookups. Construction is parallel and happens at most once per
//     Instance (sync.Once).
//  3. A memory bound: instances whose table would exceed maxGainTableBytes
//     skip the cache and fall back to the layer-1 fast path on the fly —
//     bit-for-bit identical values, just recomputed.
//
// Numerical contract: kernel values agree with the naive
// math.Hypot+math.Pow formulation to within a few ulps (the fast integer
// power and the reciprocal each round once more than math.Pow). The
// golden-equivalence test in kernel_test.go pins this down; DESIGN.md
// documents the tolerance.

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"sinrconn/internal/phys"
)

// maxGainTableBytes bounds the memory the per-instance gain table may use
// (256 MiB ≈ n = 5792). Larger instances fall back to on-the-fly fast path
// loss, which computes identical values.
const maxGainTableBytes = 256 << 20

// PowAlpha returns d^alpha, avoiding math.Pow when alpha or 2·alpha is a
// small integer (covering the model's α and the mean-power exponent α/2).
// The implementation lives in internal/phys (the leaf data package); this
// wrapper inlines, so kernel call sites pay nothing for the indirection.
func PowAlpha(d, alpha float64) float64 { return phys.PowAlpha(d, alpha) }

// PowAlphaSq returns d^alpha given the *squared* distance d² — the form the
// kernel prefers because geom.Point.DistSq needs no square root. For integer
// α the cost is at most one sqrt (odd α) or none at all (even α).
func PowAlphaSq(d2, alpha float64) float64 { return phys.PowAlphaSq(d2, alpha) }

// PathLoss evaluates PowAlphaSq for one fixed α, bit for bit, with the
// model's default α = 3 arm — ipow(d², 1)·√d², one multiply and one
// hardware sqrt — small enough to inline into the slot kernels' inner
// loops. Every other α costs one call: α = 2 and 4 to their unrolled
// arms (ipow(d², 1) and ipow(d², 2)), the rest to the generic
// PowAlphaSq. The zero value is not usable; build one with NewPathLoss.
type PathLoss struct {
	alpha float64
	spec  uint8 // 2, 3 or 4 for the unrolled integer arms, else 0
}

// NewPathLoss returns the path-loss evaluator for exponent alpha.
func NewPathLoss(alpha float64) PathLoss {
	p := PathLoss{alpha: alpha}
	if alpha == 2 || alpha == 3 || alpha == 4 {
		p.spec = uint8(alpha)
	}
	return p
}

// Sq returns PowAlphaSq(d2, α). Only the α = 3 arm is written here: the
// rest lives out of line in sqOther, which keeps Sq under the compiler's
// inlining budget (go build -gcflags=-m reports "can inline
// PathLoss.Sq").
func (p PathLoss) Sq(d2 float64) float64 {
	if p.spec == 3 {
		return d2 * math.Sqrt(d2)
	}
	return p.sqOther(d2)
}

// sqOther is Sq for every α but 3.
func (p PathLoss) sqOther(d2 float64) float64 {
	switch p.spec {
	case 2:
		return d2
	case 4:
		return d2 * d2
	}
	return PowAlphaSq(d2, p.alpha)
}

// DistSq returns the squared distance between nodes u and v.
func (in *Instance) DistSq(u, v int) float64 { return in.pts[u].DistSq(in.pts[v]) }

// DistAlpha returns d(u,v)^α via the fast path-loss kernel.
func (in *Instance) DistAlpha(u, v int) float64 {
	return PowAlphaSq(in.pts[u].DistSq(in.pts[v]), in.params.Alpha)
}

// LengthAlpha returns Length(l)^α — the per-link path loss every c(u,v) and
// signal computation needs. Cheap enough (≤ 1 sqrt + 3 multiplies at the
// default α) that no per-link map is needed; together with the gain table it
// is the memoization layer for link constants.
func (in *Instance) LengthAlpha(l Link) float64 { return in.DistAlpha(l.From, l.To) }

// buildGainTable fills in.gain with d(u,v)^{-α} in row-major order
// (entry v·n+u, i.e. row v holds the gains from every sender u to receiver
// v). The matrix is symmetric bit for bit — both entries are 1/PowAlphaSq of
// the same squared distance — so row v is also the gains from sender v to
// every receiver; the engine's exact decode reads it that way
// (TestGainTableSymmetric). Diagonal and duplicate-point entries are +Inf
// — a zero-distance "link" saturates any receiver — and callers treat +Inf
// as the saturation sentinel. Rows are built in parallel. The table is
// exact: its row stride is n, with no spare space.
func (in *Instance) buildGainTable() {
	n := len(in.pts)
	if n == 0 || uint64(n)*uint64(n)*8 > maxGainTableBytes {
		return
	}
	g := make([]float64, n*n)
	alpha := in.params.Alpha
	workers := runtime.NumCPU()
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for v := lo; v < hi; v++ {
				pv := in.pts[v]
				row := g[v*n : (v+1)*n]
				for u := range row {
					row[u] = 1 / PowAlphaSq(pv.DistSq(in.pts[u]), alpha)
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	in.gain, in.gainStride = g, n
}

// seedGainTable installs a table that a derivation (Extend, MoveTo,
// Shrink) built for in before in is shared, so in never builds its own.
func (in *Instance) seedGainTable(g []float64, stride int, nodes *atomic.Int64) {
	in.gainOnce.Do(func() {})
	in.gain, in.gainStride, in.gainNodes = g, stride, nodes
	in.markGainResolved()
}

// markGainResolved records that gainOnce has run (the atomic publishes the
// preceding gain write to non-Do readers of gainTableIfBuilt).
func (in *Instance) markGainResolved() { in.gainReady.Store(true) }

// GainTableStride returns the gain table and its row stride, building the
// table on first use: entry v·stride+u = d(u,v)^{-α} for u, v < n, bitwise
// equal to entry u·stride+v. A table built here, by MoveTo or by Shrink is
// exact (stride n); one grown by Extend has a wider stride, and the entries
// past n in each row belong to the instance's descendants, so a reader
// never indexes past column n. Extend, MoveTo and Shrink keep the table
// symmetric. It returns a nil table when the table would exceed the memory
// budget; callers must then fall back to Gain, which computes identical
// values on the fly.
//
// The one-time build parallelizes across runtime.NumCPU() regardless of any
// consumer-level worker cap (e.g. the size of a sim.Pool): the table is shared
// per-Instance state, not part of the simulation, and the burst is bounded
// by maxGainTableBytes.
func (in *Instance) GainTableStride() ([]float64, int) {
	in.gainOnce.Do(func() {
		in.buildGainTable()
		in.markGainResolved()
	})
	return in.gain, in.gainStride
}

// GainTable returns the gain table when it is exact n×n (row-major, entry
// v·n+u = d(u,v)^{-α}), building it on first use, and nil otherwise: when
// the table would exceed the memory budget, or when Extend grew it with a
// wider row stride, which GainTableStride reports. Callers that get nil
// fall back to Gain, which computes identical values.
func (in *Instance) GainTable() []float64 {
	if g, stride := in.GainTableStride(); stride == len(in.pts) {
		return g
	}
	return nil
}

// gainTableIfBuilt returns the gain table and its stride only when the
// table has already been resolved (built, derivation-seeded, or skipped
// for budget), never forcing the O(n²) build — the peek Extend, MoveTo and
// Shrink use so far-field-only sessions don't pay for a table no engine
// will read.
func (in *Instance) gainTableIfBuilt() ([]float64, int, bool) {
	if !in.gainReady.Load() {
		return nil, 0, false
	}
	return in.gain, in.gainStride, true
}

// GainRow returns the gain row of receiver v (gains from every sender), or
// nil when the table is disabled by the memory bound.
func (in *Instance) GainRow(v int) []float64 {
	if g, stride := in.GainTableStride(); g != nil {
		return g[v*stride : v*stride+len(in.pts)]
	}
	return nil
}

// Gain returns d(u,v)^{-α}: the channel gain from sender u to receiver v.
// +Inf marks zero distance (u == v or duplicate points).
func (in *Instance) Gain(u, v int) float64 {
	if g, stride := in.GainTableStride(); g != nil {
		return g[v*stride+u]
	}
	return 1 / PowAlphaSq(in.pts[u].DistSq(in.pts[v]), in.params.Alpha)
}
