package sinr

import (
	"math"
	"math/rand"
	"testing"
)

func TestCAtSafePowerIsTwoBeta(t *testing.T) {
	in := randomInstance(t, rand.New(rand.NewSource(1)), 4, 20)
	p := in.Params()
	for _, length := range []float64{1, 2, 5.5, 17} {
		c := in.C(length, p.SafePower(length))
		if math.Abs(c-2*p.Beta) > 1e-9 {
			t.Errorf("C(len=%v, safe) = %v, want %v", length, c, 2*p.Beta)
		}
	}
}

func TestCInfiniteBelowMinPower(t *testing.T) {
	in := randomInstance(t, rand.New(rand.NewSource(2)), 4, 20)
	p := in.Params()
	if c := in.C(4, p.MinPower(4)*0.99); !math.IsInf(c, 1) {
		t.Errorf("C below min power = %v, want +Inf", c)
	}
	if c := in.C(4, p.MinPower(4)); !math.IsInf(c, 1) {
		t.Errorf("C at exactly min power = %v, want +Inf (zero slack)", c)
	}
}

func TestAffectanceOwnSenderZero(t *testing.T) {
	in := randomInstance(t, rand.New(rand.NewSource(3)), 5, 30)
	l := Link{From: 0, To: 1}
	pu := in.Params().SafePower(in.Length(l))
	if a := in.Affectance(0, pu, l, pu); a != 0 {
		t.Errorf("affectance of own sender = %v, want 0", a)
	}
}

func TestAffectanceCapped(t *testing.T) {
	in := randomInstance(t, rand.New(rand.NewSource(4)), 5, 30)
	p := in.Params()
	l := Link{From: 0, To: 1}
	pu := p.SafePower(in.Length(l))
	// A very powerful nearby interferer must be capped at 1+ε.
	a := in.Affectance(2, 1e18, l, pu)
	if math.Abs(a-(1+p.Epsilon)) > 1e-12 {
		t.Errorf("capped affectance = %v, want %v", a, 1+p.Epsilon)
	}
	// Co-located interferer (distance zero to receiver) is also capped.
	a = in.Affectance(1, pu, Link{From: 0, To: 1}, pu)
	if math.Abs(a-(1+p.Epsilon)) > 1e-12 {
		t.Errorf("co-located affectance = %v, want cap %v", a, 1+p.Epsilon)
	}
}

func TestAffectanceMonotoneInInterfererPower(t *testing.T) {
	in := randomInstance(t, rand.New(rand.NewSource(5)), 6, 40)
	l := Link{From: 0, To: 1}
	pu := in.Params().SafePower(in.Length(l))
	prev := 0.0
	for _, pw := range []float64{0.1, 1, 10, 100} {
		a := in.Affectance(3, pw, l, pu)
		if a < prev-1e-12 {
			t.Fatalf("affectance not monotone in power: %v after %v", a, prev)
		}
		prev = a
	}
}

func TestAffectanceDecreasesWithInterfererDistance(t *testing.T) {
	// Place interferers on a line moving away from the receiver.
	in := MustInstance(pointsOnLine(0, 1, 3, 6, 12, 24), DefaultParams())
	l := Link{From: 0, To: 1} // length 1
	pu := in.Params().SafePower(1)
	pw := pu
	prev := math.Inf(1)
	for w := 2; w < in.Len(); w++ {
		a := in.Affectance(w, pw, l, pu)
		if a > prev+1e-12 {
			t.Fatalf("affectance increased with distance at node %d: %v > %v", w, a, prev)
		}
		prev = a
	}
}

func TestSINRSingleSenderNoInterference(t *testing.T) {
	in := randomInstance(t, rand.New(rand.NewSource(6)), 4, 20)
	p := in.Params()
	l := Link{From: 0, To: 1}
	pw := p.SafePower(in.Length(l))
	got := in.SINR([]Tx{{Sender: 0, Power: pw}}, l)
	// SafePower for exactly this length gives SNR ≥ 2β (more if link is
	// shorter than the power class).
	if got < 2*p.Beta-1e-9 {
		t.Errorf("SINR = %v, want ≥ %v", got, 2*p.Beta)
	}
}

func TestSINRMissingSenderIsZero(t *testing.T) {
	in := randomInstance(t, rand.New(rand.NewSource(7)), 4, 20)
	if got := in.SINR([]Tx{{Sender: 2, Power: 5}}, Link{From: 0, To: 1}); got != 0 {
		t.Errorf("SINR without sender = %v, want 0", got)
	}
}

// TestFeasibilityEquivalence verifies the paper's Section 5 claim that
// a_S(ℓ) ≤ 1 is exactly Eqn 1 (when powers keep c finite): the affectance
// formulation and the raw SINR check must agree on random node-disjoint
// link sets.
func TestFeasibilityEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		in := randomInstance(t, rng, 8, 15+rng.Float64()*60)
		// Four node-disjoint links: 0->1, 2->3, 4->5, 6->7.
		links := []Link{{From: 0, To: 1}, {From: 2, To: 3}, {From: 4, To: 5}, {From: 6, To: 7}}
		pa := NoiseSafeLinear(in.Params())
		powers := make([]float64, len(links))
		for i, l := range links {
			powers[i] = pa.Power(in, l)
		}
		bySINR, err := in.SINRFeasible(links, powers)
		if err != nil {
			t.Fatal(err)
		}
		byAff := in.Feasible(links, pa)
		if bySINR != byAff {
			t.Fatalf("trial %d: SINR says %v, affectance says %v", trial, bySINR, byAff)
		}
	}
}

func TestFeasibleSubsetClosed(t *testing.T) {
	// Feasibility is closed under taking subsets: removing links only
	// removes interference.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		in := randomInstance(t, rng, 8, 200)
		links := []Link{{From: 0, To: 1}, {From: 2, To: 3}, {From: 4, To: 5}, {From: 6, To: 7}}
		pa := NoiseSafeLinear(in.Params())
		if !in.Feasible(links, pa) {
			continue
		}
		for drop := range links {
			sub := make([]Link, 0, len(links)-1)
			for i, l := range links {
				if i != drop {
					sub = append(sub, l)
				}
			}
			if !in.Feasible(sub, pa) {
				t.Fatalf("trial %d: feasible set has infeasible subset (dropped %d)", trial, drop)
			}
		}
	}
}

func TestSINRFeasibleLengthMismatch(t *testing.T) {
	in := randomInstance(t, rand.New(rand.NewSource(10)), 4, 20)
	if _, err := in.SINRFeasible([]Link{{From: 0, To: 1}}, nil); err == nil {
		t.Fatal("expected ErrMismatchedLengths")
	}
}

// TestDualityBounds verifies Claim 8.3: for noise-safe powers there is a
// constant γ₂ with γ₂·a^L_{ℓ'd}(ℓd) ≤ a^U_ℓ(ℓ') ≤ (1/γ₂)·a^L_{ℓ'd}(ℓd),
// provided neither side is threshold-capped. With c ∈ [β, 2β] the constant
// is γ₂ = 1/2.
func TestDualityBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	checked := 0
	for trial := 0; trial < 400 && checked < 100; trial++ {
		in := randomInstance(t, rng, 4, 30+rng.Float64()*100)
		l := Link{From: 0, To: 1}
		other := Link{From: 2, To: 3}
		p := in.Params()
		maxLen := math.Max(in.Length(l), in.Length(other))
		uni := UniformFor(p, maxLen)
		lin := NoiseSafeLinear(p)

		aU := in.Affectance(l.From, uni.Power(in, l), other, uni.Power(in, other))
		ld, otherd := l.Dual(), other.Dual()
		aL := in.Affectance(otherd.From, lin.Power(in, otherd), ld, lin.Power(in, ld))

		cap_ := 1 + p.Epsilon
		if aU >= cap_-1e-9 || aL >= cap_-1e-9 || aU == 0 || aL == 0 {
			continue // thresholded or degenerate; claim applies to raw values
		}
		checked++
		// Under uniform power a^U_ℓ(ℓ') = c'·(len(ℓ')/d(u,v'))^α and the
		// dual-linear value differs only in the leading c constant, both of
		// which lie in [β, 2β] for noise-safe powers — except that uniform
		// power for the max length gives the shorter link extra headroom,
		// driving its c below 2β but never below β... the documented γ₂=1/2
		// bound still applies in one direction; check both with slack 2.05
		// to absorb the c(u,v) range [β, 2β].
		ratio := aU / aL
		if ratio < 1/2.05 || ratio > 2.05 {
			t.Fatalf("duality ratio out of range: aU=%v aL=%v ratio=%v", aU, aL, ratio)
		}
	}
	if checked < 20 {
		t.Fatalf("too few uncapped samples checked: %d", checked)
	}
}

func TestOutAffectanceMatchesManualSum(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	in := randomInstance(t, rng, 8, 40)
	l := Link{From: 0, To: 1}
	set := []Link{{From: 2, To: 3}, {From: 4, To: 5}, {From: 6, To: 7}}
	pa := NoiseSafeLinear(in.Params())
	want := 0.0
	for _, o := range set {
		want += in.Affectance(l.From, pa.Power(in, l), o, pa.Power(in, o))
	}
	if got := in.OutAffectance(l, set, pa); math.Abs(got-want) > 1e-12 {
		t.Errorf("OutAffectance = %v, want %v", got, want)
	}
}
