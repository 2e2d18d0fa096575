package geom_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sinrconn/internal/geom"
	"sinrconn/internal/workload"
)

// ring places n points evenly on a circle whose neighboring points are
// exactly 1 apart.
func ring(n int) []geom.Point {
	theta := 2 * math.Pi / float64(n)
	radius := 1 / (2 * math.Sin(theta/2))
	pts := make([]geom.Point, n)
	for i := range pts {
		a := theta * float64(i)
		pts[i] = geom.Point{X: radius * math.Cos(a), Y: radius * math.Sin(a)}
	}
	return pts
}

// The all-pairs scans MinDist and MaxDist replaced, kept verbatim as the
// reference the sub-quadratic versions must match bit for bit.

func quadMinDist(pts []geom.Point) float64 {
	n := len(pts)
	if n < 2 {
		return 0
	}
	best := math.Inf(1)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if d := pts[i].DistSq(pts[j]); d < best {
				best = d
			}
		}
	}
	return math.Sqrt(best)
}

func quadMaxDist(pts []geom.Point) float64 {
	n := len(pts)
	if n < 2 {
		return 0
	}
	best := 0.0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if d := pts[i].DistSq(pts[j]); d > best {
				best = d
			}
		}
	}
	return math.Sqrt(best)
}

func quadDelta(pts []geom.Point) float64 {
	mn := quadMinDist(pts)
	if mn <= 0 {
		return 1
	}
	return quadMaxDist(pts) / mn
}

// checkExtremes fails t unless MinDist, MaxDist and Delta of pts carry the
// reference's exact bits, and leaves pts unmodified.
func checkExtremes(t *testing.T, label string, pts []geom.Point) {
	t.Helper()
	orig := append([]geom.Point(nil), pts...)
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"MinDist", geom.MinDist(pts), quadMinDist(pts)},
		{"MaxDist", geom.MaxDist(pts), quadMaxDist(pts)},
		{"Delta", geom.Delta(pts), quadDelta(pts)},
	} {
		if math.Float64bits(c.got) != math.Float64bits(c.want) {
			t.Fatalf("%s: %s = %v (%#x), quadratic scan %v (%#x)", label, c.name,
				c.got, math.Float64bits(c.got), c.want, math.Float64bits(c.want))
		}
	}
	for i := range pts {
		if pts[i] != orig[i] {
			t.Fatalf("%s: input point %d moved from %v to %v", label, i, orig[i], pts[i])
		}
	}
}

// adversarialShapes are the inputs where pruning is most likely to go
// wrong: every point in one strip, ties in X and Y, every point on the hull,
// exact duplicates, and coordinates large enough that differences round.
func adversarialShapes() map[string][]geom.Point {
	shapes := map[string][]geom.Point{}
	var column, cross, diagonal, runs, dups, lattice, far, tiny []geom.Point
	for i := 0; i < 257; i++ {
		column = append(column, geom.Point{X: 3, Y: float64(i) * 1.25})
		diagonal = append(diagonal, geom.Point{X: float64(i), Y: -float64(i)})
	}
	for i := -64; i <= 64; i++ {
		cross = append(cross, geom.Point{X: float64(i), Y: 0})
		if i != 0 {
			cross = append(cross, geom.Point{X: 0, Y: float64(i) * 1.5})
		}
	}
	// Collinear runs: horizontal, vertical and sloped, with uneven gaps.
	for k := 0; k < 4; k++ {
		x0, y0 := float64(k*40), float64(k*7)
		for i := 0; i < 30; i++ {
			g := float64(i) + 0.25*float64(i%3)
			runs = append(runs,
				geom.Point{X: x0 + g, Y: y0},
				geom.Point{X: x0 - 5, Y: y0 + g},
				geom.Point{X: x0 + 2*g, Y: y0 + 100 + g})
		}
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		p := geom.Point{X: float64(rng.Intn(20)), Y: float64(rng.Intn(20))}
		dups = append(dups, p, p)
	}
	for r := 0; r < 16; r++ {
		for c := 0; c < 16; c++ {
			lattice = append(lattice, geom.Point{X: float64(c) * 2, Y: float64(r) * 2})
		}
	}
	// Far from the origin the subtraction rounds, so the pruning bounds are
	// exercised on values that differ from their real-number counterparts.
	for i := 0; i < 300; i++ {
		far = append(far, geom.Point{
			X: 1e15 + math.Floor(rng.Float64()*4096)/8,
			Y: -3e14 + math.Floor(rng.Float64()*4096)/8,
		})
		tiny = append(tiny, geom.Point{X: rng.Float64() * 1e-300, Y: rng.Float64() * 1e-300})
	}
	shapes["vertical column"] = column
	shapes["cross"] = cross
	shapes["circle"] = ring(512)
	shapes["anti-diagonal"] = diagonal
	shapes["collinear runs"] = runs
	shapes["exact duplicates"] = dups
	shapes["all one point"] = []geom.Point{{5, 5}, {5, 5}, {5, 5}, {5, 5}, {5, 5}}
	shapes["lattice"] = lattice
	shapes["far from origin"] = far
	shapes["subnormal scale"] = tiny
	shapes["near overflow"] = []geom.Point{{-1e154, 0}, {1e154, 0}, {0, 1.3e154}, {3, 4}}
	// Each half's closest pair is exactly 1 apart and the pair straddling
	// the split at X = 0 is one ulp closer, so a strip or strip scan cut
	// short by a rounding-sized margin misses it.
	under := math.Nextafter(1, 0)
	shapes["ulp under the strip width"] = []geom.Point{
		{-40, 0}, {-39, 0}, {-20, 0}, {-under, 0}, {0, 0}, {20, 0}, {39, 0}, {40, 0}}
	shapes["ulp under the strip height"] = []geom.Point{
		{-40, 0}, {-39, 0}, {-20, 0}, {-0x1p-30, 0}, {0, under}, {20, 0}, {39, 0}, {40, 0}}
	return shapes
}

// TestExtremesMatchQuadratic is the differential gate: on every generator
// of the scenario matrix, the high-Δ chain and the adversarial shapes, the
// sub-quadratic extremes return the quadratic scans' exact bits.
func TestExtremesMatchQuadratic(t *testing.T) {
	for _, spec := range workload.Matrix() {
		for _, seed := range []int64{42, 123, 456} {
			for _, n := range []int{2, 3, 64, 1024} {
				pts := spec.Gen(rand.New(rand.NewSource(seed)), n)
				checkExtremes(t, fmt.Sprintf("%s seed=%d n=%d", spec.Name, seed, n), pts)
			}
		}
	}
	for _, n := range []int{2, 3, 64, 1024} {
		checkExtremes(t, fmt.Sprintf("ChainForDelta n=%d", n), workload.ChainForDelta(n, 1<<16))
	}
	for name, pts := range adversarialShapes() {
		checkExtremes(t, name, pts)
		// Every prefix length up to 9 walks the base cases and first splits.
		for k := 0; k <= 9 && k <= len(pts); k++ {
			checkExtremes(t, fmt.Sprintf("%s[:%d]", name, k), pts[:k])
		}
	}
}

// FuzzExtremes checks the extremes against the quadratic scans on raw
// fuzzed coordinates (16 bytes per point, non-finite values skipped), on a
// scenario-matrix draw, and on the two together.
func FuzzExtremes(f *testing.F) {
	f.Add([]byte{}, int64(42), uint8(24), uint8(0))
	f.Add(encodePoints([]geom.Point{{0, 0}, {1, 0}, {5, 0}, {5, 12}}), int64(123), uint8(7), uint8(5))
	f.Add(encodePoints([]geom.Point{{3, 0}, {3, 1}, {3, 1}, {3, 9}}), int64(456), uint8(40), uint8(7))
	f.Fuzz(func(t *testing.T, raw []byte, seed int64, n, spec uint8) {
		var pts []geom.Point
		for len(raw) >= 16 && len(pts) < 256 {
			x := math.Float64frombits(binary.LittleEndian.Uint64(raw))
			y := math.Float64frombits(binary.LittleEndian.Uint64(raw[8:]))
			raw = raw[16:]
			if !math.IsNaN(x) && !math.IsInf(x, 0) && !math.IsNaN(y) && !math.IsInf(y, 0) {
				pts = append(pts, geom.Point{X: x, Y: y})
			}
		}
		specs := workload.Matrix()
		drawn := specs[int(spec)%len(specs)].Gen(rand.New(rand.NewSource(seed)), 1+int(n)%64)
		checkExtremes(t, "raw", pts)
		checkExtremes(t, "drawn", drawn)
		checkExtremes(t, "raw+drawn", append(pts, drawn...))
	})
}

func encodePoints(pts []geom.Point) []byte {
	b := make([]byte, 0, 16*len(pts))
	for _, p := range pts {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.X))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.Y))
	}
	return b
}

// BenchmarkExtremes times Delta, MinDist and MaxDist on the benchmark
// geometry, a jittered grid at spacing 2.6, against the quadratic Delta up
// to n = 16384.
func BenchmarkExtremes(b *testing.B) {
	type extreme struct {
		name string
		fn   func([]geom.Point) float64
	}
	for _, n := range []int{1024, 16384, 262144} {
		pts := workload.JitteredGrid(rand.New(rand.NewSource(1)), n, 2.6, 0.8)
		fns := []extreme{{"delta", geom.Delta}, {"mindist", geom.MinDist}, {"maxdist", geom.MaxDist}}
		if n <= 16384 {
			fns = append(fns, extreme{"quadratic-delta", quadDelta})
		}
		for _, f := range fns {
			b.Run(fmt.Sprintf("n=%d/%s", n, f.name), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					f.fn(pts)
				}
			})
		}
	}
}
