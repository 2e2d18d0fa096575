package sinr

import (
	"math"
	"math/rand"
	"testing"

	"sinrconn/internal/geom"
)

// sameFloat reports whether a and b are the same float64, any NaN
// matching any NaN.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// conflictFree reports whether no two links share a node, as a group
// requires.
func conflictFree(links []Link) bool {
	busy := map[int]bool{}
	for _, l := range links {
		if busy[l.From] || busy[l.To] {
			return false
		}
		busy[l.From], busy[l.To] = true, true
	}
	return true
}

// TestGroupMatchesWholeGroupFloats grows slot groups by first fit over
// random links — duplicate points, zero powers and a link that cannot
// stand alone included — and checks each TryAdd verdict against the
// whole-group check on the group plus the candidate, and after every add
// each member's running sum against a fresh evaluation, bit for bit: in
// the SINR form Instance.SINR of the member against sinrOf its signal and
// interference, in the affectance form SetLinkAffectance against its
// affectance.
func TestGroupMatchesWholeGroupFloats(t *testing.T) {
	for _, alpha := range []float64{2, 2.5, 3, 4} {
		rng := rand.New(rand.NewSource(int64(alpha * 17)))
		pts := make([]geom.Point, 90)
		for i := range pts {
			pts[i] = geom.Point{X: rng.Float64() * 120, Y: rng.Float64() * 120}
		}
		pts[11], pts[40] = pts[10], pts[39]
		p := DefaultParams()
		p.Alpha = alpha
		in := MustInstance(pts, p)
		var links []Link
		powers := map[Link]float64{}
		for v := 1; v < len(pts); v++ {
			l := Link{From: v, To: rng.Intn(v)}
			for u := 0; u < v && rng.Intn(4) > 0; u++ { // mostly short links
				if pts[u].DistSq(pts[v]) < pts[l.To].DistSq(pts[v]) {
					l.To = u
				}
			}
			if v == 11 || v == 40 {
				l.To = v - 1
			}
			links = append(links, l)
			powers[l] = p.SafePower(in.Length(l)) * []float64{1, 3, 20}[rng.Intn(3)]
		}
		powers[links[10]] = 0 // zero length, zero power
		powers[links[60]] = 0
		powers[links[70]] = 0.5 * p.MinPower(in.Length(links[70]))
		pa := PerLink{Table: powers}

		for _, affect := range []bool{false, true} {
			// try checks g.TryAdd's verdict against the whole-group check.
			try := func(g *Group, l Link) bool {
				t.Helper()
				cand := append(append([]Link(nil), g.links...), l)
				var want bool
				if conflictFree(cand) {
					if affect {
						want = in.Feasible(cand, pa)
					} else {
						want, _ = in.SINRFeasible(cand, append(append([]float64(nil), g.power...), powers[l]))
					}
				}
				got := g.TryAdd(l, powers[l])
				if got != want {
					t.Fatalf("alpha %v affect %v: TryAdd(%v) = %v, whole-group check %v on %v", alpha, affect, l, got, want, cand)
				}
				return got
			}
			var groups []*Group
			for _, l := range links {
				var home *Group
				for _, g := range groups {
					if try(g, l) {
						home = g
						break
					}
				}
				if home == nil {
					g := in.SINRGroup()
					if affect {
						g = in.AffectanceGroup()
					}
					if try(g, l) {
						groups = append(groups, g)
						home = g
					}
				}
				if home != nil {
					checkGroupSums(t, in, home, pa)
				}
			}
			if big := maxGroup(groups); len(groups) < 3 || big < 4 {
				t.Fatalf("alpha %v affect %v: %d groups of at most %d links: the check saw too little", alpha, affect, len(groups), big)
			}
		}
	}
}

func maxGroup(groups []*Group) int {
	big := 0
	for _, g := range groups {
		big = max(big, len(g.Links()))
	}
	return big
}

// checkGroupSums compares every member's running sum with a fresh
// evaluation over the whole group.
func checkGroupSums(t *testing.T, in *Instance, g *Group, pa Assignment) {
	t.Helper()
	txs := make([]Tx, len(g.links))
	for i, l := range g.links {
		txs[i] = Tx{Sender: l.From, Power: g.power[i]}
	}
	for i, l := range g.links {
		if g.affect {
			if want := in.SetLinkAffectance(g.links, l, pa); !sameFloat(g.sum[i], want) {
				t.Fatalf("member %v: affectance %v, SetLinkAffectance %v", l, g.sum[i], want)
			}
			continue
		}
		if got, want := in.sinrOf(g.sig[i], g.sum[i]), in.SINR(txs, l); !sameFloat(got, want) {
			t.Fatalf("member %v: SINR %v from running sums, Instance.SINR %v", l, got, want)
		}
	}
}
