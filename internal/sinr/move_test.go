package sinr

import (
	"math/rand"
	"testing"

	"sinrconn/internal/geom"
)

func movePoints(t *testing.T, n int, seed int64) []geom.Point {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * 60, Y: rng.Float64() * 60}
	}
	return pts
}

// samePoints fails unless in holds exactly pts.
func samePoints(t *testing.T, in *Instance, pts []geom.Point) {
	t.Helper()
	if in.Len() != len(pts) {
		t.Fatalf("instance has %d nodes, want %d", in.Len(), len(pts))
	}
	for i, q := range pts {
		if in.Point(i) != q {
			t.Fatalf("node %d at %v, want %v", i, in.Point(i), q)
		}
	}
}

// TestMoveToMatchesFreshInstance pins the mobility fast path: the gain table
// after a move must be bit-identical to one built from scratch over the
// post-move point set, for every entry — the copied unmoved block and the
// recomputed rows and columns alike.
func TestMoveToMatchesFreshInstance(t *testing.T) {
	for _, alpha := range []float64{2, 2.5, 3, 4} {
		pts := movePoints(t, 42, 11)
		p := DefaultParams()
		p.Alpha = alpha
		parent := MustInstance(pts, p)
		parent.GainTable() // force the build so MoveTo has a table to reuse

		moved := []int{3, 17, 40}
		to := []geom.Point{{X: 90, Y: 5}, {X: 91, Y: 50}, {X: 5, Y: 95}}
		got, err := parent.MoveTo(moved, to)
		if err != nil {
			t.Fatal(err)
		}
		fresh := append([]geom.Point(nil), pts...)
		for i, v := range moved {
			fresh[v] = to[i]
		}
		samePoints(t, got, fresh)
		checkGains(t, "MoveTo", got)
		// The parent is untouched (moves derive, never mutate).
		if parent.Point(3) != pts[3] {
			t.Fatal("MoveTo mutated the parent instance")
		}
	}
}

func TestMoveToLazyParent(t *testing.T) {
	// A parent whose table was never built still moves correctly — the
	// result just computes its own table on demand.
	pts := movePoints(t, 20, 12)
	parent := MustInstance(pts, DefaultParams())
	got, err := parent.MoveTo([]int{4}, []geom.Point{{X: 200, Y: 0}})
	if err != nil {
		t.Fatal(err)
	}
	fresh := append([]geom.Point(nil), pts...)
	fresh[4] = geom.Point{X: 200, Y: 0}
	want := MustInstance(fresh, DefaultParams())
	if g, w := got.Gain(4, 7), want.Gain(4, 7); g != w {
		t.Fatalf("lazy gain differs: %v vs %v", g, w)
	}
}

func TestMoveToValidation(t *testing.T) {
	parent := MustInstance(movePoints(t, 8, 13), DefaultParams())
	if _, err := parent.MoveTo([]int{1, 2}, []geom.Point{{}}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := parent.MoveTo([]int{9}, []geom.Point{{}}); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if _, err := parent.MoveTo([]int{2, 2}, []geom.Point{{}, {X: 1}}); err == nil {
		t.Fatal("duplicate mover accepted")
	}
}

// TestShrinkMatchesFreshInstance pins the compaction fast path: the shrunk
// table is the survivor-by-survivor minor of the old one, bit-identical to a
// fresh build over the surviving points.
func TestShrinkMatchesFreshInstance(t *testing.T) {
	pts := movePoints(t, 36, 14)
	p := DefaultParams()
	parent := MustInstance(pts, p)
	parent.GainTable()

	removed := []int{0, 7, 7, 19, 35} // duplicate on purpose
	got, oldToNew, err := parent.Shrink(removed)
	if err != nil {
		t.Fatal(err)
	}
	keep := survivorIndices(len(pts), removed)
	if got.Len() != len(keep) {
		t.Fatalf("shrunk to %d nodes, want %d", got.Len(), len(keep))
	}
	var fresh []geom.Point
	for _, v := range keep {
		fresh = append(fresh, pts[v])
	}
	samePoints(t, got, fresh)
	checkGains(t, "Shrink", got)
	// Mapping round-trips.
	for j, v := range keep {
		if oldToNew[v] != j {
			t.Fatalf("oldToNew[%d] = %d, want %d", v, oldToNew[v], j)
		}
	}
	for _, r := range removed {
		if oldToNew[r] != -1 {
			t.Fatalf("removed node %d mapped to %d", r, oldToNew[r])
		}
	}
}

func TestShrinkValidation(t *testing.T) {
	parent := MustInstance(movePoints(t, 5, 15), DefaultParams())
	if _, _, err := parent.Shrink([]int{5}); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if _, _, err := parent.Shrink([]int{0, 1, 2, 3, 4}); err == nil {
		t.Fatal("total removal accepted")
	}
}

// survivorIndices returns the ascending list of old indices kept by a Shrink
// with the given removed set — the inverse direction of the oldToNew map.
func survivorIndices(n int, removed []int) []int {
	dead := make(map[int]bool, len(removed))
	for _, v := range removed {
		dead[v] = true
	}
	out := make([]int, 0, n-len(dead))
	for v := 0; v < n; v++ {
		if !dead[v] {
			out = append(out, v)
		}
	}
	return out
}
