package core

// The quantities the paper's proofs use but no node computes: the Eqn-3
// invariant, Kesselheim's amenability functional f_ℓ, Lemma 14's average
// affectance and the Appendix A C-independence partition. The tests here
// and in theory_test.go use them as checks on what the protocols build.

import (
	"math/rand"
	"sort"
	"testing"

	"sinrconn/internal/geom"
	"sinrconn/internal/sinr"
)

// eqn3Holds verifies the Kesselheim invariant on a selected set: for every
// link ℓ with L the selected links no longer than ℓ,
// a^L_L(ℓ) + a^U_ℓ(L) ≤ τ. Distr-Cap's Lemmas 17–18 assert this for its
// output; the tests call this to certify it.
func eqn3Holds(in *sinr.Instance, selected []sinr.Link, tau float64) bool {
	if tau <= 0 {
		tau = DefaultTau
	}
	lin := sinr.NoiseSafeLinear(in.Params())
	maxLen := 0.0
	for _, l := range selected {
		if ln := in.Length(l); ln > maxLen {
			maxLen = ln
		}
	}
	uni := sinr.UniformFor(in.Params(), maxLen)
	sorted := append([]sinr.Link(nil), selected...)
	sort.SliceStable(sorted, func(a, b int) bool {
		return in.Length(sorted[a]) < in.Length(sorted[b])
	})
	for i, l := range sorted {
		smaller := sorted[:i]
		if in.SetLinkAffectance(smaller, l, lin)+in.OutAffectance(l, smaller, uni) > tau+1e-9 {
			return false
		}
	}
	return true
}

// amenabilityF returns the paper's f_ℓ(ℓ′) functional (Section 8.2.2):
//
//	f_ℓ(ℓ′) = a^U_{ℓ′}(ℓ) + a^L_ℓ(ℓ′)   if len(ℓ) ≤ len(ℓ′),  else 0
//
// where U is uniform power and L is linear power. Feasible sets R satisfy
// f_ℓ(R) = O(1) for every link ℓ (Thm 1 of Kesselheim, SODA 2011), which is
// the engine behind the largeness proof of Distr-Cap.
func amenabilityF(in *sinr.Instance, l, other sinr.Link, uni sinr.Uniform, lin sinr.Linear) float64 {
	if in.Length(l) > in.Length(other) {
		return 0
	}
	aU := in.Affectance(other.From, uni.Power(in, other), l, uni.Power(in, l))
	aL := in.Affectance(l.From, lin.Power(in, l), other, lin.Power(in, other))
	return aU + aL
}

// avgAffectance returns the average in-affectance of the set:
// (1/|L|)·Σ_{ℓ∈L} a_L(ℓ). Lemma 14 bounds this by O(Υ) for the low-degree
// tree subset under mean power.
func avgAffectance(in *sinr.Instance, links []sinr.Link, pa sinr.Assignment) float64 {
	if len(links) == 0 {
		return 0
	}
	sum := 0.0
	for _, l := range links {
		sum += in.SetLinkAffectance(links, l, pa)
	}
	return sum / float64(len(links))
}

// isIndependent reports whether links a and b are q-independent:
// d(x, y′)·d(y, x′) ≥ q²·d(x,y)·d(x′,y′) for a = (x,y), b = (x′,y′)
// (Appendix A). Independence is the pairwise-separation notion that, per
// length class, implies feasibility.
func isIndependent(in *sinr.Instance, a, b sinr.Link, q float64) bool {
	dxyP := in.Dist(a.From, b.To)
	dyxP := in.Dist(a.To, b.From)
	return dxyP*dyxP >= q*q*in.Length(a)*in.Length(b)
}

// independentPartition greedily partitions links into q-independent classes
// using the ascending-length first-fit coloring of Lemma 23: sort by
// length; each link joins the first class where it is q-independent of all
// previously placed (shorter) links, opening a new class if none fits. For
// O(1)-sparse inputs the number of classes is O(1).
func independentPartition(in *sinr.Instance, links []sinr.Link, q float64) [][]sinr.Link {
	order := make([]int, len(links))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return in.Length(links[order[i]]) < in.Length(links[order[j]])
	})
	var classes [][]sinr.Link
	for _, idx := range order {
		l := links[idx]
		placed := false
		for ci := range classes {
			ok := true
			for _, o := range classes[ci] {
				if !isIndependent(in, o, l, q) {
					ok = false
					break
				}
			}
			if ok {
				classes[ci] = append(classes[ci], l)
				placed = true
				break
			}
		}
		if !placed {
			classes = append(classes, []sinr.Link{l})
		}
	}
	return classes
}

func TestAvgAffectanceEmpty(t *testing.T) {
	in := uniformInstance(t, 12, 4)
	if got := avgAffectance(in, nil, sinr.NoiseSafeLinear(in.Params())); got != 0 {
		t.Errorf("avgAffectance(empty) = %v", got)
	}
}

func TestAmenabilityFZeroForLongerFirst(t *testing.T) {
	in := lineInst(0, 10, 11, 12)
	long := sinr.Link{From: 0, To: 1}  // length 10
	short := sinr.Link{From: 2, To: 3} // length 1
	uni := sinr.UniformFor(in.Params(), 10)
	lin := sinr.NoiseSafeLinear(in.Params())
	if f := amenabilityF(in, long, short, uni, lin); f != 0 {
		t.Errorf("f(longer, shorter) = %v, want 0", f)
	}
	if f := amenabilityF(in, short, long, uni, lin); f <= 0 {
		t.Errorf("f(shorter, longer) = %v, want > 0", f)
	}
}

func TestIsIndependent(t *testing.T) {
	in := lineInst(0, 1, 1000, 1001)
	a := sinr.Link{From: 0, To: 1}
	b := sinr.Link{From: 2, To: 3}
	if !isIndependent(in, a, b, 3) {
		t.Error("far unit links should be 3-independent")
	}
	// A link is never q-independent of itself for q > 1.
	if isIndependent(in, a, a, 2) {
		t.Error("link independent of itself")
	}
	// Adjacent links of similar length are not independent for large q.
	in2 := lineInst(0, 4, 5, 9)
	c := sinr.Link{From: 0, To: 1}
	d := sinr.Link{From: 2, To: 3}
	if isIndependent(in2, c, d, 10) {
		t.Error("adjacent links should not be 10-independent")
	}
}

func TestIndependentPartitionCoversAll(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := make([]geom.Point, 0, 30)
	for len(pts) < 30 {
		cand := geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
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
	for i := 0; i+1 < 30; i += 2 {
		links = append(links, sinr.Link{From: i, To: i + 1})
	}
	classes := independentPartition(in, links, 2)
	total := 0
	for _, cl := range classes {
		total += len(cl)
		// Every pair within a class must be pairwise independent.
		for i := 0; i < len(cl); i++ {
			for j := i + 1; j < len(cl); j++ {
				if !isIndependent(in, cl[i], cl[j], 2) && !isIndependent(in, cl[j], cl[i], 2) {
					t.Fatalf("class contains dependent pair %v %v", cl[i], cl[j])
				}
			}
		}
	}
	if total != len(links) {
		t.Fatalf("partition covers %d of %d links", total, len(links))
	}
}

func TestIndependentPartitionFarLinksOneClass(t *testing.T) {
	in := lineInst(0, 1, 5000, 5001, 10000, 10001)
	links := []sinr.Link{{From: 0, To: 1}, {From: 2, To: 3}, {From: 4, To: 5}}
	classes := independentPartition(in, links, 2)
	if len(classes) != 1 {
		t.Errorf("far links split into %d classes, want 1", len(classes))
	}
}
