package sinr

// Golden-equivalence tests: the physics kernel (gain table + fast integer-α
// path loss) must reproduce the naive math.Hypot + math.Pow physics the
// package shipped with. The two formulations differ only in rounding: the
// fast path computes d^α from the squared distance with hardware multiplies
// and sqrt, and gains are cached as reciprocals, so each quantity may differ
// from the naive value by a few ulps (the reciprocal and each eliminated Pow
// contribute ≤ 1 ulp each). The tests therefore assert relative agreement
// within relTol = 1e-12 — orders of magnitude tighter than any decision
// tolerance in the model (the β comparisons use 1e-9 slack) and loose enough
// only for genuine last-digit rounding. Powers are drawn at or above
// SafePower so c(u,v)'s denominator is well conditioned and the ulp bound is
// not amplified by cancellation. Table and tableless paths must agree
// *bit-for-bit* with each other, which TestGainTableMatchesFallback pins.

import (
	"math"
	"math/rand"
	"testing"

	"sinrconn/internal/geom"
)

const relTol = 1e-12

// naive* reimplement the pre-kernel physics verbatim.

func naiveC(p Params, length, pu float64) float64 {
	denom := 1 - p.Beta*p.Noise*math.Pow(length, p.Alpha)/pu
	if denom <= 0 {
		return math.Inf(1)
	}
	return p.Beta / denom
}

func naiveAffectance(in *Instance, w int, pw float64, l Link, pu float64) float64 {
	if w == l.From {
		return 0
	}
	p := in.Params()
	cap_ := 1 + p.Epsilon
	dwv := in.Dist(w, l.To)
	if dwv <= 0 {
		return cap_
	}
	duv := in.Length(l)
	c := naiveC(p, duv, pu)
	if math.IsInf(c, 1) {
		return cap_
	}
	a := c * (pw / pu) * math.Pow(duv/dwv, p.Alpha)
	if a > cap_ {
		return cap_
	}
	return a
}

func naiveSINR(in *Instance, txs []Tx, l Link) float64 {
	p := in.Params()
	signal, interference := 0.0, 0.0
	for _, t := range txs {
		rp := t.Power / math.Pow(in.Dist(t.Sender, l.To), p.Alpha)
		if t.Sender == l.From {
			signal += rp
		} else {
			interference += rp
		}
	}
	if signal == 0 {
		return 0
	}
	return signal / (p.Noise + interference)
}

func naiveMeasuredAffectance(in *Instance, txs []Tx, l Link, pu float64) float64 {
	p := in.Params()
	c := naiveC(p, in.Length(l), pu)
	if math.IsInf(c, 1) {
		return math.Inf(1)
	}
	signal := pu / math.Pow(in.Length(l), p.Alpha)
	interference := 0.0
	for _, t := range txs {
		if t.Sender == l.From {
			continue
		}
		d := in.Dist(t.Sender, l.To)
		if d <= 0 {
			return math.Inf(1)
		}
		interference += t.Power / math.Pow(d, p.Alpha)
	}
	return c * interference / signal
}

func relClose(a, b float64) bool {
	if a == b {
		return true
	}
	if math.IsInf(a, 1) && math.IsInf(b, 1) {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= relTol*scale
}

func randomKernelInstance(rng *rand.Rand, n int, alpha float64) *Instance {
	pts := make([]geom.Point, n)
	for i := range pts {
		// Spread ≥ 1 apart on a jittered grid (the paper's normalization).
		pts[i] = geom.Point{
			X: float64(i%8)*3 + rng.Float64(),
			Y: float64(i/8)*3 + rng.Float64(),
		}
	}
	p := DefaultParams()
	p.Alpha = alpha
	return MustInstance(pts, p)
}

// TestKernelGoldenEquivalence cross-checks every kernel-backed quantity
// against the naive physics across random instances, senders, and
// α ∈ {2, 2.5, 3, 4} (free-space boundary, fractional fallback, odd and
// even integer fast paths).
func TestKernelGoldenEquivalence(t *testing.T) {
	for _, alpha := range []float64{2, 2.5, 3, 4} {
		for seed := int64(0); seed < 5; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(alpha*10)))
			n := 24 + rng.Intn(16)
			in := randomKernelInstance(rng, n, alpha)
			p := in.Params()

			txs := make([]Tx, 0, n/3)
			for w := 0; w < n/3; w++ {
				pw := p.SafePower(1+rng.Float64()*8) * (1 + rng.Float64())
				txs = append(txs, Tx{Sender: rng.Intn(n), Power: pw})
			}

			for trial := 0; trial < 50; trial++ {
				l := Link{From: rng.Intn(n), To: rng.Intn(n)}
				if l.From == l.To {
					continue
				}
				pu := p.SafePower(in.Length(l)) * (1 + rng.Float64())

				if got, want := in.C(in.Length(l), pu), naiveC(p, in.Length(l), pu); !relClose(got, want) {
					t.Fatalf("α=%v C: got %v want %v", alpha, got, want)
				}
				w := rng.Intn(n)
				pw := p.SafePower(4) * (1 + rng.Float64())
				if got, want := in.Affectance(w, pw, l, pu), naiveAffectance(in, w, pw, l, pu); !relClose(got, want) {
					t.Fatalf("α=%v Affectance(%d on %v): got %v want %v", alpha, w, l, got, want)
				}
				sumNaive := 0.0
				for _, tx := range txs {
					sumNaive += naiveAffectance(in, tx.Sender, tx.Power, l, pu)
				}
				if got := in.SetAffectance(txs, l, pu); !relClose(got, sumNaive) {
					t.Fatalf("α=%v SetAffectance: got %v want %v", alpha, got, sumNaive)
				}
				if got, want := in.SINR(txs, l), naiveSINR(in, txs, l); !relClose(got, want) {
					t.Fatalf("α=%v SINR: got %v want %v", alpha, got, want)
				}
				if got, want := in.MeasuredAffectance(txs, l, pu), naiveMeasuredAffectance(in, txs, l, pu); !relClose(got, want) {
					t.Fatalf("α=%v MeasuredAffectance: got %v want %v", alpha, got, want)
				}
				if got, want := in.DistAlpha(l.From, l.To), math.Pow(in.Length(l), p.Alpha); !relClose(got, want) {
					t.Fatalf("α=%v DistAlpha: got %v want %v", alpha, got, want)
				}
				if got, want := in.Gain(w, l.To), 1/math.Pow(in.Dist(w, l.To), p.Alpha); w != l.To && !relClose(got, want) {
					t.Fatalf("α=%v Gain: got %v want %v", alpha, got, want)
				}
			}
		}
	}
}

// TestGainTableMatchesFallback asserts the cached table and the on-the-fly
// fallback produce bit-identical gains, so the memory bound can never change
// results.
func TestGainTableMatchesFallback(t *testing.T) {
	for _, alpha := range []float64{2, 2.5, 3, 4} {
		rng := rand.New(rand.NewSource(int64(alpha * 7)))
		cached := randomKernelInstance(rng, 40, alpha)
		rng = rand.New(rand.NewSource(int64(alpha * 7)))
		bare := randomKernelInstance(rng, 40, alpha)
		bare.disableGainTableForTest()
		if cached.GainTable() == nil {
			t.Fatal("table unexpectedly over budget")
		}
		if bare.GainTable() != nil {
			t.Fatal("fallback instance still has a table")
		}
		for u := 0; u < 40; u++ {
			for v := 0; v < 40; v++ {
				a, b := cached.Gain(u, v), bare.Gain(u, v)
				if a != b && !(math.IsInf(a, 1) && math.IsInf(b, 1)) {
					t.Fatalf("α=%v gain(%d,%d): table %v fallback %v", alpha, u, v, a, b)
				}
			}
		}
	}
}

// TestGainTableSymmetric pins the gain table bitwise symmetric — entry
// v·stride+u equals entry u·stride+v bit for bit — as built, and as derived
// by Extend (from an exact table and in place), MoveTo and Shrink. The
// engine's exact decode reads sender s's gains to its listeners from row s
// instead of column s, so this is what keeps it equal to the
// listener-major scan. It holds because both entries evaluate 1/PowAlphaSq
// of the same squared distance: (a−b)² and (b−a)² round identically.
func TestGainTableSymmetric(t *testing.T) {
	check := func(label string, in *Instance) {
		t.Helper()
		checkGains(t, label, in)
	}
	for _, alpha := range []float64{2, 2.5, 3, 4} {
		rng := rand.New(rand.NewSource(int64(alpha * 13)))
		base := randomKernelInstance(rng, 48, alpha)
		pts := append([]geom.Point(nil), base.Points()...)
		pts[5] = pts[4] // a duplicate: its pair entries are +Inf both ways
		in := MustInstance(pts, base.Params())
		check("fresh", in)
		grown, err := in.Extend([]geom.Point{{X: -3.25, Y: 7}, {X: 1e3, Y: 0.1}, pts[9]})
		if err != nil {
			t.Fatal(err)
		}
		check("Extend", grown)
		grown, err = grown.Extend([]geom.Point{{X: 2e3, Y: -4}, pts[11]})
		if err != nil {
			t.Fatal(err)
		}
		check("Extend in place", grown)
		moved, err := grown.MoveTo([]int{0, 20}, []geom.Point{{X: 0.3, Y: -11}, pts[30]})
		if err != nil {
			t.Fatal(err)
		}
		check("MoveTo", moved)
		shrunk, _, err := moved.Shrink([]int{1, 7, 49})
		if err != nil {
			t.Fatal(err)
		}
		check("Shrink", shrunk)
	}
}

// TestKernelDeterminism asserts a fixed seed gives bit-identical affectance
// sums across two independently built instances — the determinism contract
// protocols rely on.
func TestKernelDeterminism(t *testing.T) {
	build := func() float64 {
		rng := rand.New(rand.NewSource(42))
		in := randomKernelInstance(rng, 32, 3)
		p := in.Params()
		txs := make([]Tx, 0, 10)
		for w := 0; w < 10; w++ {
			txs = append(txs, Tx{Sender: w, Power: p.SafePower(3)})
		}
		sum := 0.0
		for v := 10; v < 32; v++ {
			l := Link{From: v - 1, To: v}
			sum += in.SetAffectance(txs, l, p.SafePower(in.Length(l)))
			sum += in.SINR(txs, l)
		}
		return sum
	}
	if a, b := build(), build(); a != b {
		t.Fatalf("determinism violated: %v != %v", a, b)
	}
}

// TestPowAlpha pins the fast-path exponent arithmetic itself.
func TestPowAlpha(t *testing.T) {
	cases := []struct{ d, alpha float64 }{
		{2, 3}, {2, 4}, {2, 2}, {3.7, 3}, {3.7, 2.5}, {9, 1.5}, {5, 6.3}, {1, 3}, {0, 3},
	}
	for _, c := range cases {
		want := math.Pow(c.d, c.alpha)
		if got := PowAlpha(c.d, c.alpha); !relClose(got, want) {
			t.Errorf("PowAlpha(%v,%v) = %v, want %v", c.d, c.alpha, got, want)
		}
		if got := PowAlphaSq(c.d*c.d, c.alpha); !relClose(got, want) {
			t.Errorf("PowAlphaSq(%v,%v) = %v, want %v", c.d*c.d, c.alpha, got, want)
		}
	}
}
