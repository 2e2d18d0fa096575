package workload

import (
	"math"
	"math/rand"

	"sinrconn/internal/geom"
)

// Uniform scatters n points uniformly on a span×span square by rejection
// sampling with minimum pairwise distance 1. If span is too small to fit n
// such points it is grown automatically, so the call always succeeds.
func Uniform(rng *rand.Rand, n int, span float64) []geom.Point {
	if n <= 0 {
		return nil
	}
	if minSpan := 2 * math.Sqrt(float64(n)); span < minSpan {
		span = minSpan
	}
	for {
		pts := make([]geom.Point, 0, n)
		grid := make(map[[2]int][]geom.Point)
		cell := 1.0
		key := func(p geom.Point) [2]int {
			return [2]int{int(math.Floor(p.X / cell)), int(math.Floor(p.Y / cell))}
		}
		fits := func(p geom.Point) bool {
			k := key(p)
			for dx := -1; dx <= 1; dx++ {
				for dy := -1; dy <= 1; dy++ {
					for _, q := range grid[[2]int{k[0] + dx, k[1] + dy}] {
						if q.Dist(p) < 1 {
							return false
						}
					}
				}
			}
			return true
		}
		fails := 0
		for len(pts) < n && fails < 200*n {
			p := geom.Point{X: rng.Float64() * span, Y: rng.Float64() * span}
			if fits(p) {
				pts = append(pts, p)
				k := key(p)
				grid[k] = append(grid[k], p)
			} else {
				fails++
			}
		}
		if len(pts) == n {
			return pts
		}
		span *= 1.5 // too dense; retry on a bigger square
	}
}

// UniformDensity scatters n points at roughly the given points-per-unit-area
// density (clamped to keep rejection sampling fast).
func UniformDensity(rng *rand.Rand, n int, density float64) []geom.Point {
	if density <= 0 {
		density = 0.1
	}
	if density > 0.5 {
		density = 0.5
	}
	span := math.Sqrt(float64(n) / density)
	return Uniform(rng, n, span)
}

// Clusters places n points into k Gaussian-ish clusters whose centers are
// uniform on a span×span square, modelling sensor fields with dense pockets.
// Minimum pairwise distance 1 is enforced by rejection.
func Clusters(rng *rand.Rand, n, k int, clusterRadius, span float64) []geom.Point {
	if n <= 0 {
		return nil
	}
	if k <= 0 {
		k = 1
	}
	if clusterRadius < 2 {
		clusterRadius = 2
	}
	// Each cluster can hold ~(r/1)² points at min spacing 1; grow the radius
	// if the requested density is impossible.
	for float64(k)*clusterRadius*clusterRadius < 2*float64(n) {
		clusterRadius *= 1.4
	}
	if minSpan := 4 * clusterRadius; span < minSpan {
		span = minSpan
	}
	centers := make([]geom.Point, k)
	for i := range centers {
		centers[i] = geom.Point{X: rng.Float64() * span, Y: rng.Float64() * span}
	}
	pts := make([]geom.Point, 0, n)
	fails := 0
	for len(pts) < n {
		c := centers[rng.Intn(k)]
		ang := rng.Float64() * 2 * math.Pi
		rad := math.Sqrt(rng.Float64()) * clusterRadius
		p := geom.Point{X: c.X + rad*math.Cos(ang), Y: c.Y + rad*math.Sin(ang)}
		ok := true
		for _, q := range pts {
			if q.Dist(p) < 1 {
				ok = false
				break
			}
		}
		if ok {
			pts = append(pts, p)
			fails = 0
		} else if fails++; fails > 200*n {
			clusterRadius *= 1.4
			for i := range centers {
				centers[i] = geom.Point{X: rng.Float64() * span, Y: rng.Float64() * span}
			}
			pts = pts[:0]
			fails = 0
		}
	}
	return pts
}

// GridPoints lays out a rows×cols lattice with the given spacing ≥ 1 — the
// most regular instance, with Δ = spacing·hypot(rows-1, cols-1).
func GridPoints(rows, cols int, spacing float64) []geom.Point {
	if spacing < 1 {
		spacing = 1
	}
	pts := make([]geom.Point, 0, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			pts = append(pts, geom.Point{X: float64(c) * spacing, Y: float64(r) * spacing})
		}
	}
	return pts
}

// ExponentialChain places n collinear points with geometrically growing
// gaps: gap_i = base^i. It is the canonical high-Δ instance (Δ grows
// exponentially in n), the regime where uniform-power scheduling pays its
// Ω(log Δ) penalty. base must be > 1; values ≤ 1 are replaced by 2.
func ExponentialChain(n int, base float64) []geom.Point {
	if n <= 0 {
		return nil
	}
	if base <= 1 {
		base = 2
	}
	pts := make([]geom.Point, n)
	x := 0.0
	gap := 1.0
	for i := 0; i < n; i++ {
		pts[i] = geom.Point{X: x}
		x += gap
		gap *= base
	}
	return pts
}

// ChainForDelta returns an n-point exponential chain whose Δ is close to
// the requested target. A chain of n points at minimum gap 1 cannot have
// Δ below n-1, so smaller targets are clamped up. The base is found by
// binary search on the gap sum (1 + b + b² + … + b^(n-2) = Δ).
func ChainForDelta(n int, targetDelta float64) []geom.Point {
	if n < 2 {
		return ExponentialChain(n, 2)
	}
	if min := float64(n - 1); targetDelta < min {
		targetDelta = min
	}
	span := func(b float64) float64 {
		s, g := 0.0, 1.0
		for i := 0; i < n-1; i++ {
			s += g
			g *= b
		}
		return s
	}
	lo, hi := 1.0, 2.0
	for span(hi) < targetDelta {
		hi *= 2
		if hi > 1e6 {
			break
		}
	}
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if span(mid) < targetDelta {
			lo = mid
		} else {
			hi = mid
		}
	}
	base := hi
	if base <= 1 {
		base = 1.0001
	}
	return ExponentialChain(n, base)
}

// JitteredGrid lays n points row-major on a ⌈√n⌉×⌈√n⌉ lattice with the
// given spacing, each perturbed uniformly by up to ±jitter per axis. Unlike
// the rejection-sampling generators it is O(n) with no retry loop, which
// makes it the instance generator for far-field benchmarks at n ≥ 10⁴.
// The normalization guarantee holds by construction: jitter is clamped to
// (spacing−1)/2, so any two points remain ≥ spacing − 2·jitter ≥ 1 apart.
func JitteredGrid(rng *rand.Rand, n int, spacing, jitter float64) []geom.Point {
	if n <= 0 {
		return nil
	}
	if spacing < 1 {
		spacing = 1
	}
	if maxJ := (spacing - 1) / 2; jitter > maxJ {
		jitter = maxJ
	}
	if jitter < 0 {
		jitter = 0
	}
	side := int(math.Ceil(math.Sqrt(float64(n))))
	pts := make([]geom.Point, 0, n)
	for r := 0; r < side && len(pts) < n; r++ {
		for c := 0; c < side && len(pts) < n; c++ {
			pts = append(pts, geom.Point{
				X: float64(c)*spacing + (rng.Float64()*2-1)*jitter,
				Y: float64(r)*spacing + (rng.Float64()*2-1)*jitter,
			})
		}
	}
	return pts
}

// Spec names a workload for experiment tables.
type Spec struct {
	// Name labels the workload in tables.
	Name string
	// Gen produces n points using rng.
	Gen func(rng *rand.Rand, n int) []geom.Point
}

// Standard returns the workload suite used across the experiments.
func Standard() []Spec {
	return []Spec{
		{Name: "uniform", Gen: func(rng *rand.Rand, n int) []geom.Point {
			return UniformDensity(rng, n, 0.15)
		}},
		{Name: "clusters", Gen: func(rng *rand.Rand, n int) []geom.Point {
			return Clusters(rng, n, 1+n/32, 6, 100)
		}},
		{Name: "grid", Gen: func(_ *rand.Rand, n int) []geom.Point {
			side := int(math.Ceil(math.Sqrt(float64(n))))
			return GridPoints(side, side, 2)[:n]
		}},
		{Name: "chain", Gen: func(_ *rand.Rand, n int) []geom.Point {
			return ChainForDelta(n, 1<<16)
		}},
	}
}
