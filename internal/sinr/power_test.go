package sinr

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"sinrconn/internal/geom"
)

// pointsOnLine places points at the given x coordinates on the x axis.
func pointsOnLine(xs ...float64) []geom.Point {
	pts := make([]geom.Point, len(xs))
	for i, x := range xs {
		pts[i] = geom.Point{X: x}
	}
	return pts
}

func TestUniformPower(t *testing.T) {
	in := MustInstance(pointsOnLine(0, 1, 5), DefaultParams())
	u := Uniform{P: 42}
	if got := u.Power(in, Link{From: 0, To: 1}); got != 42 {
		t.Errorf("Power = %v", got)
	}
	if got := u.Power(in, Link{From: 0, To: 2}); got != 42 {
		t.Errorf("Power = %v (must not depend on link)", got)
	}
	if !strings.HasPrefix(u.Name(), "uniform") {
		t.Errorf("Name = %q", u.Name())
	}
}

func TestUniformForOvercomesNoise(t *testing.T) {
	p := DefaultParams()
	in := MustInstance(pointsOnLine(0, 7), p)
	u := UniformFor(p, 7)
	l := Link{From: 0, To: 1}
	c := in.C(in.Length(l), u.Power(in, l))
	if c > 2*p.Beta+1e-9 {
		t.Errorf("c(u,v) = %v under UniformFor, want ≤ %v", c, 2*p.Beta)
	}
}

func TestLinearPowerScaling(t *testing.T) {
	p := DefaultParams()
	in := MustInstance(pointsOnLine(0, 2, 6), p)
	lin := Linear{Scale: 3}
	// P = 3·ℓ^α; ℓ = 2 → 3·8 = 24 for α = 3.
	if got := lin.Power(in, Link{From: 0, To: 1}); math.Abs(got-3*math.Pow(2, p.Alpha)) > 1e-9 {
		t.Errorf("linear power = %v", got)
	}
	// Received power at the link's own receiver is Scale, length-free.
	for _, l := range []Link{{From: 0, To: 1}, {From: 0, To: 2}, {From: 1, To: 2}} {
		rp := lin.Power(in, l) / math.Pow(in.Length(l), p.Alpha)
		if math.Abs(rp-lin.Scale) > 1e-9 {
			t.Errorf("received power %v for link %v, want %v", rp, l, lin.Scale)
		}
	}
	if lin.Name() != "linear" {
		t.Errorf("Name = %q", lin.Name())
	}
}

func TestNoiseSafeLinearC(t *testing.T) {
	p := DefaultParams()
	in := MustInstance(pointsOnLine(0, 1, 4, 20), p)
	lin := NoiseSafeLinear(p)
	for _, l := range []Link{{From: 0, To: 1}, {From: 0, To: 2}, {From: 0, To: 3}} {
		c := in.C(in.Length(l), lin.Power(in, l))
		if math.Abs(c-2*p.Beta) > 1e-9 {
			t.Errorf("c = %v for link %v, want exactly 2β", c, l)
		}
	}
}

func TestMeanPowerScaling(t *testing.T) {
	p := DefaultParams()
	in := MustInstance(pointsOnLine(0, 4), p)
	m := Mean{Scale: 5}
	want := 5 * math.Pow(4, p.Alpha/2)
	if got := m.Power(in, Link{From: 0, To: 1}); math.Abs(got-want) > 1e-9 {
		t.Errorf("mean power = %v, want %v", got, want)
	}
	if m.Name() != "mean" {
		t.Errorf("Name = %q", m.Name())
	}
}

func TestNoiseSafeMeanOvercomesNoiseAtAllLengths(t *testing.T) {
	p := DefaultParams()
	maxLen := 64.0
	in := MustInstance(pointsOnLine(0, 1, 8, 64), p)
	m := NoiseSafeMean(p, maxLen)
	for _, l := range []Link{{From: 0, To: 1}, {From: 0, To: 2}, {From: 0, To: 3}} {
		c := in.C(in.Length(l), m.Power(in, l))
		if c > 2*p.Beta+1e-9 {
			t.Errorf("c = %v for link %v under noise-safe mean, want ≤ 2β", c, l)
		}
	}
}

func TestNoiseSafeMeanClampsMaxLen(t *testing.T) {
	p := DefaultParams()
	a := NoiseSafeMean(p, 0.1)
	b := NoiseSafeMean(p, 1)
	if a.Scale != b.Scale {
		t.Errorf("maxLen below 1 not clamped: %v vs %v", a.Scale, b.Scale)
	}
}

func TestPerLinkTableAndFallback(t *testing.T) {
	p := DefaultParams()
	in := MustInstance(pointsOnLine(0, 1, 3), p)
	pl := PerLink{Table: map[Link]float64{}, Fallback: Uniform{P: 7}}
	pl.Table[Link{From: 0, To: 1}] = 99
	if got := pl.Power(in, Link{From: 0, To: 1}); got != 99 {
		t.Errorf("table power = %v", got)
	}
	if got := pl.Power(in, Link{From: 0, To: 2}); got != 7 {
		t.Errorf("fallback power = %v", got)
	}
	bare := PerLink{Table: map[Link]float64{}}
	if got := bare.Power(in, Link{From: 0, To: 2}); got != 0 {
		t.Errorf("no-fallback power = %v, want 0", got)
	}
	if pl.Name() != "arbitrary" {
		t.Errorf("Name = %q", pl.Name())
	}
}

// linkAffectance returns a_ℓ'(ℓ): the affectance of link other's sender
// (under assignment pa) on link l (under the same assignment).
func linkAffectance(in *Instance, other, l Link, pa Assignment) float64 {
	return in.Affectance(other.From, pa.Power(in, other), l, pa.Power(in, l))
}

// TestMeanPowerRelativeAffectanceScaleInvariant verifies the design note in
// NoiseSafeMean: scaling all powers by a common factor does not change
// link-on-link affectance (as long as noise remains comfortably overcome),
// so the global Δ^(α/2) factor preserves the paper's mean-power analysis.
func TestMeanPowerRelativeAffectanceScaleInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	in := randomInstance(t, rng, 6, 50)
	p := in.Params()
	l := Link{From: 0, To: 1}
	other := Link{From: 2, To: 3}
	big := NoiseSafeMean(p, 1024)
	bigger := Mean{Scale: big.Scale * 8}
	aBig := linkAffectance(in, other, l, big)
	aBigger := linkAffectance(in, other, l, bigger)
	// c(u,v) shrinks slightly with more power (less noise derating), so the
	// values agree only up to the c-range factor; both must be within
	// [β/2β, 2β/β] of each other when uncapped.
	if aBig == 0 || aBigger == 0 {
		t.Skip("degenerate sample")
	}
	if aBig >= 1+p.Epsilon-1e-9 || aBigger >= 1+p.Epsilon-1e-9 {
		t.Skip("capped sample")
	}
	ratio := aBig / aBigger
	if ratio < 0.49 || ratio > 2.05 {
		t.Errorf("scale invariance violated: ratio = %v", ratio)
	}
}

func BenchmarkMeasuredAffectance(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in := randomInstance(b, rng, 200, 300)
	txs := make([]Tx, 100)
	for i := range txs {
		txs[i] = Tx{Sender: i, Power: 100}
	}
	l := Link{From: 150, To: 151}
	pu := in.Params().SafePower(in.Length(l))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.MeasuredAffectance(txs, l, pu)
	}
}
