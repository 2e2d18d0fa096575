package geom

import (
	"fmt"
	"math"
)

// Point is a location in the Euclidean plane.
type Point struct {
	X, Y float64
}

// String renders the point with limited precision for logs and traces.
func (p Point) String() string {
	return fmt.Sprintf("(%.3f,%.3f)", p.X, p.Y)
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// DistSq returns the squared Euclidean distance between p and q. It avoids
// the square root on paths that only compare distances. The explicit
// conversions round each product, which keeps the compiler from fusing
// them into a multiply-add on architectures that have one, so the result
// is the same on every architecture.
func (p Point) DistSq(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return float64(dx*dx) + float64(dy*dy)
}

// Scale returns p scaled by factor s about the origin.
func (p Point) Scale(s float64) Point {
	return Point{X: p.X * s, Y: p.Y * s}
}

// NumLengthClasses returns ⌈log₂ Δ⌉ clamped to at least 1: the number of
// doubling length classes the Init protocol iterates over for an instance
// with normalized distance ratio delta.
func NumLengthClasses(delta float64) int {
	if delta <= 1 {
		return 1
	}
	return int(math.Ceil(math.Log2(delta) - 1e-9))
}

// LengthClass returns the doubling class of a distance d ≥ 1: the unique
// r ≥ 1 with d ∈ [2^(r-1), 2^r). Distances below 1 map to class 1, matching
// the paper's normalization (minimum distance 1).
func LengthClass(d float64) int {
	if d < 1 {
		return 1
	}
	r := int(math.Floor(math.Log2(d))) + 1
	// Guard against floating error at exact powers of two: class r covers
	// [2^(r-1), 2^r).
	for d >= math.Exp2(float64(r)) {
		r++
	}
	for r > 1 && d < math.Exp2(float64(r-1)) {
		r--
	}
	return r
}

// BoundingBox returns the axis-aligned bounding box of pts as (min, max)
// corners. It returns zero points for empty input.
func BoundingBox(pts []Point) (min, max Point) {
	if len(pts) == 0 {
		return Point{}, Point{}
	}
	min, max = pts[0], pts[0]
	for _, p := range pts[1:] {
		if p.X < min.X {
			min.X = p.X
		}
		if p.Y < min.Y {
			min.Y = p.Y
		}
		if p.X > max.X {
			max.X = p.X
		}
		if p.Y > max.Y {
			max.Y = p.Y
		}
	}
	return min, max
}

// Normalize translates and scales pts so that the minimum pairwise distance
// is exactly 1, returning the new slice and the scale factor applied. Inputs
// with fewer than two points are copied unchanged with scale 1.
func Normalize(pts []Point) ([]Point, float64) {
	out := make([]Point, len(pts))
	copy(out, pts)
	mn := MinDist(pts)
	if mn <= 0 {
		return out, 1
	}
	s := 1 / mn
	for i := range out {
		out[i] = out[i].Scale(s)
	}
	return out, s
}
