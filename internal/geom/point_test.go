package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDist(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same point", Point{1, 1}, Point{1, 1}, 0},
		{"unit x", Point{0, 0}, Point{1, 0}, 1},
		{"unit y", Point{0, 0}, Point{0, 1}, 1},
		{"3-4-5", Point{0, 0}, Point{3, 4}, 5},
		{"negative coords", Point{-1, -1}, Point{2, 3}, 5},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.p.Dist(tc.q); math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("Dist(%v,%v) = %v, want %v", tc.p, tc.q, got, tc.want)
			}
			if got := tc.p.DistSq(tc.q); math.Abs(got-tc.want*tc.want) > 1e-9 {
				t.Errorf("DistSq(%v,%v) = %v, want %v", tc.p, tc.q, got, tc.want*tc.want)
			}
		})
	}
}

func TestDistSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		p := Point{clampCoord(ax), clampCoord(ay)}
		q := Point{clampCoord(bx), clampCoord(by)}
		return math.Abs(p.Dist(q)-q.Dist(p)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequality(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a := Point{clampCoord(ax), clampCoord(ay)}
		b := Point{clampCoord(bx), clampCoord(by)}
		c := Point{clampCoord(cx), clampCoord(cy)}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// clampCoord maps arbitrary quick-generated floats into a sane finite range.
func clampCoord(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 1e6)
}

func TestVectorOps(t *testing.T) {
	p := Point{1, 2}
	if got := p.Scale(2); got != (Point{2, 4}) {
		t.Errorf("Scale = %v", got)
	}
}

func TestMinMaxDist(t *testing.T) {
	pts := []Point{{0, 0}, {1, 0}, {5, 0}, {5, 12}}
	if got := MinDist(pts); math.Abs(got-1) > 1e-12 {
		t.Errorf("MinDist = %v, want 1", got)
	}
	// farthest pair is (0,0)-(5,12) = 13
	if got := MaxDist(pts); math.Abs(got-13) > 1e-12 {
		t.Errorf("MaxDist = %v, want 13", got)
	}
	if got := Delta(pts); math.Abs(got-13) > 1e-12 {
		t.Errorf("Delta = %v, want 13", got)
	}
}

func TestMinMaxDistDegenerate(t *testing.T) {
	if got := MinDist(nil); got != 0 {
		t.Errorf("MinDist(nil) = %v", got)
	}
	if got := MaxDist([]Point{{1, 1}}); got != 0 {
		t.Errorf("MaxDist(single) = %v", got)
	}
	if got := Delta([]Point{{1, 1}}); got != 1 {
		t.Errorf("Delta(single) = %v", got)
	}
}

func TestLengthClass(t *testing.T) {
	tests := []struct {
		d    float64
		want int
	}{
		{0.5, 1},
		{1, 1},
		{1.5, 1},
		{1.999, 1},
		{2, 2},
		{3.9, 2},
		{4, 3},
		{7.99, 3},
		{8, 4},
		{1024, 11},
	}
	for _, tc := range tests {
		if got := LengthClass(tc.d); got != tc.want {
			t.Errorf("LengthClass(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
}

func TestLengthClassConsistentWithRange(t *testing.T) {
	f := func(raw float64) bool {
		d := 1 + math.Mod(math.Abs(clampCoord(raw)), 1e5)
		r := LengthClass(d)
		lo, hi := classRange(r)
		return d >= lo && d < hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// classRange returns the half-open distance interval [lo, hi) covered by
// length class r ≥ 1, the interval LengthClass must map back to r.
func classRange(r int) (lo, hi float64) {
	if r < 1 {
		r = 1
	}
	return math.Exp2(float64(r - 1)), math.Exp2(float64(r))
}

func TestNumLengthClasses(t *testing.T) {
	tests := []struct {
		delta float64
		want  int
	}{
		{1, 1},
		{0.5, 1},
		{2, 1},
		{2.1, 2},
		{4, 2},
		{1024, 10},
	}
	for _, tc := range tests {
		if got := NumLengthClasses(tc.delta); got != tc.want {
			t.Errorf("NumLengthClasses(%v) = %d, want %d", tc.delta, got, tc.want)
		}
	}
}

func TestBoundingBox(t *testing.T) {
	pts := []Point{{1, 5}, {-2, 3}, {4, -1}}
	min, max := BoundingBox(pts)
	if min != (Point{-2, -1}) || max != (Point{4, 5}) {
		t.Errorf("BoundingBox = %v,%v", min, max)
	}
	min, max = BoundingBox(nil)
	if min != (Point{}) || max != (Point{}) {
		t.Errorf("BoundingBox(nil) = %v,%v", min, max)
	}
}

func TestNormalize(t *testing.T) {
	pts := []Point{{0, 0}, {0.5, 0}, {2, 0}}
	out, s := Normalize(pts)
	if math.Abs(s-2) > 1e-12 {
		t.Fatalf("scale = %v, want 2", s)
	}
	if got := MinDist(out); math.Abs(got-1) > 1e-12 {
		t.Errorf("MinDist after Normalize = %v, want 1", got)
	}
	// Original slice must be untouched.
	if pts[1] != (Point{0.5, 0}) {
		t.Errorf("Normalize mutated input: %v", pts[1])
	}
}

func TestNormalizeDegenerate(t *testing.T) {
	out, s := Normalize([]Point{{3, 4}})
	if s != 1 || len(out) != 1 || out[0] != (Point{3, 4}) {
		t.Errorf("Normalize(single) = %v, %v", out, s)
	}
}

func randomPoints(rng *rand.Rand, n int, span float64) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: rng.Float64() * span, Y: rng.Float64() * span}
	}
	return pts
}
