package sparsity

import (
	"math/rand"
	"sort"
	"testing"

	"sinrconn/internal/geom"
	"sinrconn/internal/sinr"
)

func lineInstance(t testing.TB, xs ...float64) *sinr.Instance {
	t.Helper()
	pts := make([]geom.Point, len(xs))
	for i, x := range xs {
		pts[i] = geom.Point{X: x}
	}
	return sinr.MustInstance(pts, sinr.DefaultParams())
}

func TestMeasureEmpty(t *testing.T) {
	in := lineInstance(t, 0, 1)
	if got := measure(in, nil); got != 0 {
		t.Errorf("measure(empty) = %d", got)
	}
	if got := MeasureAtScales(in, nil); got != 0 {
		t.Errorf("MeasureAtScales(empty) = %d", got)
	}
}

func TestMeasureSingleLink(t *testing.T) {
	in := lineInstance(t, 0, 16)
	links := []sinr.Link{{From: 0, To: 1}}
	if got := measure(in, links); got != 1 {
		t.Errorf("measure(single) = %d, want 1", got)
	}
	if got := MeasureAtScales(in, links); got != 1 {
		t.Errorf("MeasureAtScales(single) = %d, want 1", got)
	}
}

func TestMeasureParallelCluster(t *testing.T) {
	// Five long parallel links whose left endpoints are packed within a
	// small ball: ψ must count all five.
	var pts []geom.Point
	var links []sinr.Link
	for i := 0; i < 5; i++ {
		y := float64(i) * 1.0
		pts = append(pts, geom.Point{X: 0, Y: y}, geom.Point{X: 100, Y: y})
		links = append(links, sinr.Link{From: 2 * i, To: 2*i + 1})
	}
	in := sinr.MustInstance(pts, sinr.DefaultParams())
	if got := measure(in, links); got != 5 {
		t.Errorf("measure(packed cluster) = %d, want 5", got)
	}
	if got := MeasureAtScales(in, links); got != 5 {
		t.Errorf("MeasureAtScales(packed cluster) = %d, want 5", got)
	}
}

func TestMeasureSpreadLinks(t *testing.T) {
	// Unit links spread very far apart: no ball of radius len/8 = 1/8
	// catches endpoints of two different links, so ψ = 1.
	var pts []geom.Point
	var links []sinr.Link
	for i := 0; i < 6; i++ {
		x := float64(i) * 1000
		pts = append(pts, geom.Point{X: x}, geom.Point{X: x + 1})
		links = append(links, sinr.Link{From: 2 * i, To: 2*i + 1})
	}
	in := sinr.MustInstance(pts, sinr.DefaultParams())
	if got := measure(in, links); got != 1 {
		t.Errorf("measure(spread) = %d, want 1", got)
	}
	if got := MeasureAtScales(in, links); got != 1 {
		t.Errorf("MeasureAtScales(spread) = %d, want 1", got)
	}
}

func TestMeasureAtScalesAgreesRoughly(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		n := 24
		pts := make([]geom.Point, 0, n)
		for len(pts) < n {
			cand := geom.Point{X: rng.Float64() * 60, Y: rng.Float64() * 60}
			ok := true
			for _, p := range pts {
				if p.Dist(cand) < 1 {
					ok = false
					break
				}
			}
			if ok {
				pts = append(pts, cand)
			}
		}
		in := sinr.MustInstance(pts, sinr.DefaultParams())
		var links []sinr.Link
		for i := 0; i+1 < n; i += 2 {
			links = append(links, sinr.Link{From: i, To: i + 1})
		}
		exact := measure(in, links)
		scaled := MeasureAtScales(in, links)
		if exact < 1 || scaled < 1 {
			t.Fatalf("trial %d: ψ below 1: exact %d scaled %d", trial, exact, scaled)
		}
		// The power-of-two grid can over- or under-shoot by a doubling in
		// radius; allow a generous envelope around the exact value.
		if scaled > 4*exact || exact > 8*scaled {
			t.Fatalf("trial %d: exact %d vs scaled %d diverge", trial, exact, scaled)
		}
	}
}

func TestSparsityScalesWithStacking(t *testing.T) {
	// k co-located long-link endpoints produce ψ = k; verify monotone
	// growth as we stack more, for the reference and the production count.
	build := func(k int) (*sinr.Instance, []sinr.Link) {
		var pts []geom.Point
		var links []sinr.Link
		for i := 0; i < k; i++ {
			pts = append(pts,
				geom.Point{X: 0, Y: float64(i)},
				geom.Point{X: 200, Y: float64(i)})
			links = append(links, sinr.Link{From: 2 * i, To: 2*i + 1})
		}
		return sinr.MustInstance(pts, sinr.DefaultParams()), links
	}
	for name, psiOf := range map[string]func(*sinr.Instance, []sinr.Link) int{
		"measure": measure, "MeasureAtScales": MeasureAtScales,
	} {
		prev := 0
		for _, k := range []int{1, 3, 6} {
			got := psiOf(build(k))
			if got < prev {
				t.Fatalf("%s not monotone: ψ(%d) = %d after %d", name, k, got, prev)
			}
			if got != k {
				t.Errorf("%s: ψ(%d stacked links) = %d, want %d", name, k, got, k)
			}
			prev = got
		}
	}
}

// measure is the reference MeasureAtScales is checked against. It returns
// the measured sparsity ψ of the link set over the canonical family of
// balls: for every link endpoint c and every radius ρ = len/8 for a link
// length present in the set, it counts the links of length ≥ 8ρ with an
// endpoint within distance ρ of c, and returns the maximum count.
//
// Restricting to endpoint-centered balls loses at most a constant factor
// versus the supremum over all balls (a ball containing k endpoints is
// contained in the ball of twice the radius centered at any one of them),
// which is exactly the slack the paper's own union-bounding argument uses
// ("by careful selection, there are only polynomially many relevant
// balls").
func measure(in *sinr.Instance, links []sinr.Link) int {
	if len(links) == 0 {
		return 0
	}
	type ep struct {
		node int
		len  float64
		link int
	}
	// Collect endpoints with their link lengths.
	eps := make([]ep, 0, 2*len(links))
	lengths := make([]float64, len(links))
	for i, l := range links {
		lengths[i] = in.Length(l)
		eps = append(eps, ep{node: l.From, len: lengths[i], link: i})
		eps = append(eps, ep{node: l.To, len: lengths[i], link: i})
	}
	// Candidate radii: len/8 for each distinct link length.
	radii := make([]float64, 0, len(links))
	seen := map[float64]struct{}{}
	for _, ln := range lengths {
		r := ln / 8
		if _, ok := seen[r]; !ok && r > 0 {
			seen[r] = struct{}{}
			radii = append(radii, r)
		}
	}
	sort.Float64s(radii)

	psi := 0
	for _, e := range eps {
		c := in.Point(e.node)
		for _, rho := range radii {
			count := 0
			counted := make(map[int]struct{})
			for i, l := range links {
				if lengths[i] < 8*rho-1e-9 {
					continue
				}
				if _, dup := counted[i]; dup {
					continue
				}
				if in.Point(l.From).Dist(c) <= rho+1e-9 || in.Point(l.To).Dist(c) <= rho+1e-9 {
					counted[i] = struct{}{}
					count++
				}
			}
			if count > psi {
				psi = count
			}
		}
	}
	return psi
}
