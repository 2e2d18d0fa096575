package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestMSTSmallKnown(t *testing.T) {
	// Three collinear points: MST must use the two short edges.
	pts := []Point{{0, 0}, {1, 0}, {3, 0}}
	edges := MST(pts)
	if len(edges) != 2 {
		t.Fatalf("edge count = %d, want 2", len(edges))
	}
	if got := totalLength(edges); math.Abs(got-3) > 1e-12 {
		t.Errorf("total length = %v, want 3", got)
	}
}

func TestMSTDegenerate(t *testing.T) {
	if got := MST(nil); got != nil {
		t.Errorf("MST(nil) = %v", got)
	}
	if got := MST([]Point{{1, 1}}); got != nil {
		t.Errorf("MST(single) = %v", got)
	}
}

func TestMSTSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pts := randomPoints(rng, 80, 100)
	edges := MST(pts)
	if len(edges) != len(pts)-1 {
		t.Fatalf("edge count = %d, want %d", len(edges), len(pts)-1)
	}
	// Union-find connectivity check.
	parent := make([]int, len(pts))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range edges {
		ru, rv := find(e.U), find(e.V)
		if ru == rv {
			t.Fatalf("MST contains a cycle through edge %v", e)
		}
		parent[ru] = rv
	}
	root := find(0)
	for i := range pts {
		if find(i) != root {
			t.Fatalf("MST does not span: node %d disconnected", i)
		}
	}
}

func TestMSTOptimalVsBruteForce(t *testing.T) {
	// For tiny n, compare against brute-force minimum over all spanning
	// trees via Kruskal on the complete graph (which is exact).
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		pts := randomPoints(rng, 8, 10)
		got := totalLength(MST(pts))
		want := kruskalTotal(pts)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: Prim total %v != Kruskal total %v", trial, got, want)
		}
	}
}

// totalLength returns the sum of edge lengths.
func totalLength(edges []Edge) float64 {
	s := 0.0
	for _, e := range edges {
		s += e.Len
	}
	return s
}

func kruskalTotal(pts []Point) float64 {
	n := len(pts)
	type edge struct {
		u, v int
		d    float64
	}
	var all []edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			all = append(all, edge{i, j, pts[i].Dist(pts[j])})
		}
	}
	for i := range all {
		for j := i + 1; j < len(all); j++ {
			if all[j].d < all[i].d {
				all[i], all[j] = all[j], all[i]
			}
		}
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	total := 0.0
	for _, e := range all {
		ru, rv := find(e.u), find(e.v)
		if ru != rv {
			parent[ru] = rv
			total += e.d
		}
	}
	return total
}

func TestMSTEdgeLengthsPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := randomPoints(rng, 40, 60)
	for _, e := range MST(pts) {
		if e.Len <= 0 {
			t.Fatalf("non-positive edge length %v", e)
		}
		if math.Abs(e.Len-pts[e.U].Dist(pts[e.V])) > 1e-9 {
			t.Fatalf("edge length mismatch: %v", e)
		}
	}
}

func BenchmarkMST(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := randomPoints(rng, 500, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MST(pts)
	}
}
