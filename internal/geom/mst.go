package geom

import "math"

// Edge is an undirected edge between two point indices with its Euclidean
// length.
type Edge struct {
	U, V int
	Len  float64
}

// MST computes a Euclidean minimum spanning tree of pts using Prim's
// algorithm in O(n²) time, which is optimal for dense geometric inputs of
// the sizes this library targets. It returns n-1 edges (or nil for fewer
// than two points). The MST is the structure the centralized connectivity
// algorithm of Halldórsson & Mitra (SODA 2012) schedules, and serves as the
// centralized baseline in our experiments.
func MST(pts []Point) []Edge {
	n := len(pts)
	if n < 2 {
		return nil
	}
	inTree := make([]bool, n)
	bestDist := make([]float64, n)
	bestFrom := make([]int, n)
	for i := range bestDist {
		bestDist[i] = math.Inf(1)
		bestFrom[i] = -1
	}
	inTree[0] = true
	for j := 1; j < n; j++ {
		bestDist[j] = pts[0].DistSq(pts[j])
		bestFrom[j] = 0
	}
	edges := make([]Edge, 0, n-1)
	for len(edges) < n-1 {
		pick := -1
		pickD := math.Inf(1)
		for j := 0; j < n; j++ {
			if !inTree[j] && bestDist[j] < pickD {
				pickD = bestDist[j]
				pick = j
			}
		}
		if pick < 0 {
			break // disconnected is impossible for finite points; defensive
		}
		inTree[pick] = true
		edges = append(edges, Edge{
			U:   bestFrom[pick],
			V:   pick,
			Len: math.Sqrt(pickD),
		})
		for j := 0; j < n; j++ {
			if !inTree[j] {
				if d := pts[pick].DistSq(pts[j]); d < bestDist[j] {
					bestDist[j] = d
					bestFrom[j] = pick
				}
			}
		}
	}
	return edges
}
