package schedule

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"sinrconn/internal/geom"
	"sinrconn/internal/sinr"
	"sinrconn/internal/workload"
)

// firstFitReference is FirstFit as it was written before slot groups kept
// running sums: each try copies the group, appends the candidate, checks
// node conflicts with a fresh map and re-checks the whole group with
// Feasible. It is the reference TestFirstFitMatchesReference holds
// FirstFit to.
func firstFitReference(in *sinr.Instance, links []sinr.Link, pa sinr.Assignment) (slots [][]sinr.Link, unschedulable []sinr.Link) {
	idx := make([]int, len(links))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return in.Length(links[idx[a]]) > in.Length(links[idx[b]])
	})
	feasibleWith := func(links []sinr.Link) bool {
		busy := make(map[int]bool, 2*len(links))
		for _, l := range links {
			if busy[l.From] || busy[l.To] {
				return false
			}
			busy[l.From] = true
			busy[l.To] = true
		}
		return in.Feasible(links, pa)
	}
	for _, i := range idx {
		l := links[i]
		if !in.Feasible([]sinr.Link{l}, pa) {
			unschedulable = append(unschedulable, l)
			continue
		}
		placed := false
		for s := range slots {
			cand := append(append([]sinr.Link(nil), slots[s]...), l)
			if feasibleWith(cand) {
				slots[s] = cand
				placed = true
				break
			}
		}
		if !placed {
			slots = append(slots, []sinr.Link{l})
		}
	}
	return slots, unschedulable
}

// zeroPower is an assignment that gives the links in zero power 0 and
// every other link base's power.
type zeroPower struct {
	base sinr.Assignment
	zero map[sinr.Link]bool
}

func (a zeroPower) Power(in *sinr.Instance, l sinr.Link) float64 {
	if a.zero[l] {
		return 0
	}
	return a.base.Power(in, l)
}

func (a zeroPower) Name() string { return a.base.Name() + "+zero" }

// TestFirstFitMatchesReference is the differential gate of FirstFit's slot
// groups: over every workload.Matrix() generator, α ∈ {2, 2.5, 3, 4},
// seeds 42/123/456 and the mean, linear and uniform assignments, FirstFit
// and firstFitReference must give the same groups, link for link in order,
// and the same unschedulable links. The links are a random spanning tree's
// (receivers shared, so node conflicts arise) plus a few random pairs. One
// link joins two duplicate points, and the assignment gives it and one
// ordinary link zero power.
func TestFirstFitMatchesReference(t *testing.T) {
	const n = 128
	for _, spec := range workload.Matrix() {
		for _, alpha := range []float64{2, 2.5, 3, 4} {
			for _, seed := range []int64{42, 123, 456} {
				rng := rand.New(rand.NewSource(seed))
				pts := spec.Gen(rng, n)
				delta := geom.Delta(pts) // before the duplicate makes it +Inf
				dup := 1 + rng.Intn(n-1)
				pts[dup] = pts[dup-1]
				p := sinr.DefaultParams()
				p.Alpha = alpha
				in := sinr.MustInstance(pts, p)
				links := spanningLinks(rng, pts, dup)
				for k := 0; k < n/8; k++ {
					u, v := rng.Intn(n), rng.Intn(n)
					if u != v {
						links = append(links, sinr.Link{From: u, To: v})
					}
				}
				zero := map[sinr.Link]bool{links[dup-1]: true, links[(dup+n/2)%(n-1)]: true}
				for _, pa := range []sinr.Assignment{
					sinr.NoiseSafeMean(p, delta),
					sinr.NoiseSafeLinear(p),
					sinr.Uniform{P: p.SafePower(8)},
				} {
					pa = zeroPower{base: pa, zero: zero}
					label := fmt.Sprintf("%s/alpha=%v/seed=%d/%s", spec.Name, alpha, seed, pa.Name())
					got, gotBad := FirstFit(in, links, pa)
					want, wantBad := firstFitReference(in, links, pa)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: groups differ from the reference\n got %v\nwant %v", label, got, want)
					}
					if !reflect.DeepEqual(gotBad, wantBad) {
						t.Fatalf("%s: unschedulable %v, reference %v", label, gotBad, wantBad)
					}
					if len(got) < 2 || len(gotBad) == 0 {
						t.Fatalf("%s: %d groups and %d unschedulable links: want several of each kind", label, len(got), len(gotBad))
					}
				}
			}
		}
	}
}

// spanningLinks is a random spanning tree's links over pts, toward node 0:
// node v (links[v−1]) links to its nearest lower-index node or, one time in
// three, to a random one; node dup links to node dup−1.
func spanningLinks(rng *rand.Rand, pts []geom.Point, dup int) []sinr.Link {
	links := make([]sinr.Link, 0, len(pts))
	for v := 1; v < len(pts); v++ {
		to := rng.Intn(v)
		if rng.Intn(3) > 0 {
			for u := 0; u < v; u++ {
				if pts[u].DistSq(pts[v]) < pts[to].DistSq(pts[v]) {
					to = u
				}
			}
		}
		if v == dup {
			to = v - 1
		}
		links = append(links, sinr.Link{From: v, To: to})
	}
	return links
}
