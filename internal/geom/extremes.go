package geom

import (
	"cmp"
	"math"
	"slices"
)

// The pairwise extremes — MinDist, MaxDist and Delta — return exactly, bit
// for bit, what an all-pairs scan returns: the least or greatest DistSq over
// every pair, then one math.Sqrt. They examine fewer pairs: MinDist skips a
// pair only when a lower bound on one term of its DistSq sum already
// reaches the best so far, and MaxDist skips a point only when another lies at least as far
// along both axes from any partner it could have. Both arguments rest on
// nothing but IEEE 754 rounding being monotone and sign-symmetric: if
// |a| ≤ |b| exactly then fl(a)² ≤ fl(b)², and fl(x + y) ≥ fl(x) for y ≥ 0.
// DESIGN.md ("Geometry") gives the full argument.

// MinDist returns the smallest pairwise distance among pts. It returns 0 for
// fewer than two points. It is the divide-and-conquer closest pair: sort by
// X, solve each half, then check the pairs straddling the split within a
// strip of the best squared distance so far. O(n log n) time, O(n) scratch.
func MinDist(pts []Point) float64 {
	n := len(pts)
	if n < 2 {
		return 0
	}
	xs := slices.Clone(pts)
	slices.SortFunc(xs, byXThenY)
	return math.Sqrt(closestSq(xs, make([]Point, n), math.Inf(1)))
}

// MaxDist returns the largest pairwise distance among pts (the paper's Δ when
// the minimum distance is normalized to 1). It returns 0 for fewer than two
// points. Only the h staircase points (see staircase) can be endpoints of
// the farthest pair, so it scans the h² pairs among them. A linear pass
// first drops every point the four diagonal extremes dominate, so only the
// points near the boundary are sorted: O(n) plus a sort of a few hundred
// points on the workload geometries. The worst case is h = n (a circle),
// where it costs what the all-pairs scan does.
func MaxDist(pts []Point) float64 {
	if len(pts) < 2 {
		return 0
	}
	c := undominated(pts)
	slices.SortFunc(c, byXThenY)
	c = staircase(c)
	best := 0.0
	for i, a := range c {
		for _, b := range c[i+1:] {
			if d := a.DistSq(b); d > best {
				best = d
			}
		}
	}
	return math.Sqrt(best)
}

// Delta returns the ratio of the maximum to the minimum pairwise distance,
// the paper's Δ (after normalizing the minimum distance to 1). It returns 1
// for degenerate inputs.
func Delta(pts []Point) float64 {
	mn := MinDist(pts)
	if mn <= 0 {
		return 1
	}
	return MaxDist(pts) / mn
}

func byXThenY(a, b Point) int {
	if c := cmp.Compare(a.X, b.X); c != 0 {
		return c
	}
	return cmp.Compare(a.Y, b.Y)
}

// closestSq returns the smaller of best and the least DistSq over pairs of
// p, which must be sorted by X; it leaves p sorted by Y. buf is scratch of
// at least len(p) points.
//
// A pair straddling the split is skipped only when one of its points is
// outside the strip, fl(x − midX)² ≥ best: the pair's own X gap is at
// least that point's gap to midX, so its DistSq is too. A strip pair is
// skipped only when fl(dy)² ≥ best, a term of its DistSq sum; the strip is
// sorted by Y, so every later pair's dy is no smaller.
func closestSq(p, buf []Point, best float64) float64 {
	if len(p) <= 3 {
		for i := range p {
			for j := i + 1; j < len(p); j++ {
				if d := p[i].DistSq(p[j]); d < best {
					best = d
				}
			}
		}
		for i := 1; i < len(p); i++ {
			for j := i; j > 0 && p[j].Y < p[j-1].Y; j-- {
				p[j], p[j-1] = p[j-1], p[j]
			}
		}
		return best
	}
	mid := len(p) / 2
	midX := p[mid].X // p[:mid] lie at or left of midX, p[mid:] at or right
	best = closestSq(p[:mid], buf, best)
	best = closestSq(p[mid:], buf, best)
	mergeByY(p, mid, buf)

	strip := buf[:0]
	for _, q := range p {
		if dx := q.X - midX; dx*dx < best {
			strip = append(strip, q)
		}
	}
	for i, a := range strip {
		for _, b := range strip[i+1:] {
			if dy := b.Y - a.Y; dy*dy >= best {
				break
			}
			if d := a.DistSq(b); d < best {
				best = d
			}
		}
	}
	return best
}

// mergeByY merges the Y-sorted runs p[:mid] and p[mid:] in place, using buf
// as scratch.
func mergeByY(p []Point, mid int, buf []Point) {
	out := buf[:0]
	i, j := 0, mid
	for i < mid && j < len(p) {
		if p[j].Y < p[i].Y {
			out = append(out, p[j])
			j++
		} else {
			out = append(out, p[i])
			i++
		}
	}
	out = append(out, p[i:mid]...)
	out = append(out, p[j:]...)
	copy(p, out)
}

// undominated returns a copy of pts without the points that, toward every
// quadrant, that quadrant's pivot dominates (dominance as in staircase).
// The pivots are the points of greatest X+Y, Y−X, X−Y and −X−Y. Each pivot
// is kept, since it cannot drop itself, and a dropped point lies behind a
// kept pivot toward every quadrant; dominance is transitive, so the
// staircase of what is kept still dominates every point of pts. The pivots
// only decide how much is dropped, so their rounded sums need not be exact.
func undominated(pts []Point) []Point {
	var ne, nw, se, sw int
	for i, p := range pts {
		if p.X+p.Y > pts[ne].X+pts[ne].Y {
			ne = i
		}
		if p.Y-p.X > pts[nw].Y-pts[nw].X {
			nw = i
		}
		if p.X-p.Y > pts[se].X-pts[se].Y {
			se = i
		}
		if p.X+p.Y < pts[sw].X+pts[sw].Y {
			sw = i
		}
	}
	var out []Point
	for i, p := range pts {
		behind := i != ne && p.X <= pts[ne].X && p.Y <= pts[ne].Y &&
			i != nw && p.X >= pts[nw].X && p.Y <= pts[nw].Y &&
			i != se && p.X <= pts[se].X && p.Y >= pts[se].Y &&
			i != sw && p.X >= pts[sw].X && p.Y >= pts[sw].Y
		if !behind {
			out = append(out, p)
		}
	}
	return out
}

// staircase returns the points of xs (sorted by X, ties by Y) that no other
// point dominates in one of the four quadrant orders — a point dominates q
// toward the north-east if it lies at or east of q and at or north of it,
// and likewise toward the north-west, south-east and south-west. Coincident
// points are returned once.
//
// These are the only candidates for the farthest pair. For any pair (p, q),
// take the quadrant of p as seen from q and a staircase point m dominating
// p toward it: m's gaps to q along both axes are at least p's, so
// DistSq(m, q) ≥ DistSq(p, q) under any rounding. Doing the same for q as
// seen from m gives a staircase pair at least as far apart as (p, q).
//
// In a run of equal X only the top can be maximal toward the north and the
// bottom toward the south; each is maximal toward the west if it is strictly
// above (below) every point strictly west of it, and toward the east
// likewise.
func staircase(xs []Point) []Point {
	keep := make([]bool, len(xs))
	mark := func(lo, hi int, top, bot *float64) {
		if y := xs[hi-1].Y; y > *top {
			keep[hi-1] = true
			*top = y
		}
		if y := xs[lo].Y; y < *bot {
			keep[lo] = true
			*bot = y
		}
	}
	top, bot := math.Inf(-1), math.Inf(1)
	for lo := 0; lo < len(xs); {
		hi := lo + 1
		for hi < len(xs) && xs[hi].X == xs[lo].X {
			hi++
		}
		mark(lo, hi, &top, &bot)
		lo = hi
	}
	top, bot = math.Inf(-1), math.Inf(1)
	for hi := len(xs); hi > 0; {
		lo := hi - 1
		for lo > 0 && xs[lo-1].X == xs[hi-1].X {
			lo--
		}
		mark(lo, hi, &top, &bot)
		hi = lo
	}
	var out []Point
	for i, k := range keep {
		if k {
			out = append(out, xs[i])
		}
	}
	return out
}
