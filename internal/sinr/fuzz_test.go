package sinr_test

// Native fuzz targets for the physics kernel. Both fuzz over a compact
// (seed, size, selector) encoding and regenerate geometry deterministically
// from it, so every crash reproduces from its corpus entry alone. Seed
// corpora live in testdata/fuzz/ and make CI smoke runs deterministic.
//
// Decision comparisons near the β cut carry a guard band: kernel and oracle
// agree to 1e-12 relative, so a disagreement is only meaningful when the
// SINR margin to the threshold exceeds the guard — adversarial inputs that
// land a link exactly on the cut are skipped, not failed.

import (
	"math"
	"math/rand"
	"testing"

	"sinrconn/internal/geom"
	"sinrconn/internal/oracle"
	"sinrconn/internal/sinr"
)

// fuzzInstance regenerates a jittered-grid instance from a fuzz seed: O(n),
// no rejection loops, minimum spacing ~2 by construction.
func fuzzInstance(seed int64, n int, alpha float64) ([]geom.Point, *sinr.Instance) {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{
			X: float64(i%8)*3 + rng.Float64(),
			Y: float64(i/8)*3 + rng.Float64(),
		}
	}
	p := sinr.DefaultParams()
	p.Alpha = alpha
	return pts, sinr.MustInstance(pts, p)
}

func clampFuzz(v, lo, hi int64) int {
	span := hi - lo + 1
	return int(lo + ((v%span)+span)%span)
}

// fuzzQuadPoints generates FuzzQuadtree's geometry family. The shape
// selector rides the seed's bits above the low byte, so the low-seed
// corpus entries (and the original f.Add seeds) keep regenerating the
// jittered grid bit for bit; higher seeds buy the quadtree's two
// degenerate regimes. All shapes keep pairwise distance ≥ 1 (the
// instance contract) with O(n) construction and no rejection loops.
func fuzzQuadPoints(seed int64, n int) []geom.Point {
	shape := (uint64(seed) >> 8) % 4
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	switch shape {
	case 2:
		// Collinear: zero-height bounding box. The pyramid's cells
		// collapse along one axis — the aspect-ratio corner of the plan
		// derivation (bbox squaring, midline classes on a flat strip).
		for i := range pts {
			pts[i] = geom.Point{X: float64(i)*1.5 + 0.4*rng.Float64(), Y: 5}
		}
	case 3:
		// Corner clusters plus sparse mid-field outposts: extreme density
		// contrast. Deep occupied subtrees at the corners with a nearly
		// empty interior stresses frontier opening and centroid brackets.
		const span = 600.0
		for i := range pts {
			if i%16 == 15 {
				pts[i] = geom.Point{X: span/2 + float64(i)*1.5, Y: span / 2}
				continue
			}
			c := i % 4
			cx, cy := float64(c%2)*span, float64(c/2)*span
			k := i / 4
			pts[i] = geom.Point{
				X: cx + float64(k%8)*1.5 + 0.4*rng.Float64(),
				Y: cy + float64(k/8)*1.5 + 0.4*rng.Float64(),
			}
		}
	default: // shapes 0, 1: the original jittered grid (fuzzInstance's loop)
		for i := range pts {
			pts[i] = geom.Point{
				X: float64(i%8)*3 + rng.Float64(),
				Y: float64(i/8)*3 + rng.Float64(),
			}
		}
	}
	return pts
}

// FuzzKernelVsOracle fuzzes the kernel-vs-oracle differential: every
// kernel-backed quantity must match the naive reference to 1e-12 relative
// on arbitrary (seed, n, α) instances. Type 1: any disagreement is a bug.
func FuzzKernelVsOracle(f *testing.F) {
	f.Add(int64(42), int64(24), int64(2))
	f.Add(int64(123), int64(9), int64(0))
	f.Add(int64(456), int64(40), int64(1))
	f.Add(int64(7), int64(3), int64(3))
	f.Fuzz(func(t *testing.T, seed, nRaw, alphaSel int64) {
		n := clampFuzz(nRaw, 3, 48)
		alpha := diffAlphas[clampFuzz(alphaSel, 0, int64(len(diffAlphas)-1))]
		pts, in := fuzzInstance(seed, n, alpha)
		p := in.Params()
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))

		txs := make([]sinr.Tx, 1+n/4)
		for i := range txs {
			txs[i] = sinr.Tx{
				Sender: rng.Intn(n),
				Power:  p.SafePower(1+rng.Float64()*6) * (0.5 + rng.Float64()),
			}
		}
		for trial := 0; trial < 8; trial++ {
			l := sinr.Link{From: rng.Intn(n), To: rng.Intn(n)}
			if l.From == l.To {
				continue
			}
			// c-based quantities are only comparable at well-conditioned
			// powers (≥ SafePower keeps c's denominator ≥ 1/2); below that
			// the 1−βNℓ^α/P cancellation amplifies the kernel's last-ulp
			// rounding beyond any fixed tolerance. The numerical contract in
			// DESIGN.md §2 is scoped to this regime; feasibility decisions
			// at arbitrary powers are FuzzFeasibility's job.
			pu := p.SafePower(in.Length(l)) * (1 + rng.Float64())
			if got, want := in.C(in.Length(l), pu), oracle.C(p, oracle.Dist(pts, l.From, l.To), pu); !diffClose(got, want) {
				t.Fatalf("C(%v): kernel %v oracle %v", l, got, want)
			}
			if got, want := in.SINR(txs, l), oracle.SINR(pts, p, txs, l); !diffClose(got, want) {
				t.Fatalf("SINR(%v): kernel %v oracle %v", l, got, want)
			}
			if got, want := in.SetAffectance(txs, l, pu), oracle.SetAffectance(pts, p, txs, l, pu); !diffClose(got, want) {
				t.Fatalf("SetAffectance(%v): kernel %v oracle %v", l, got, want)
			}
			if got, want := in.MeasuredAffectance(txs, l, pu), oracle.MeasuredAffectance(pts, p, txs, l, pu); !diffClose(got, want) {
				t.Fatalf("MeasuredAffectance(%v): kernel %v oracle %v", l, got, want)
			}
			w := rng.Intn(n)
			if got, want := in.Gain(w, l.To), oracle.Gain(pts, alpha, w, l.To); !diffClose(got, want) {
				t.Fatalf("Gain(%d,%d): kernel %v oracle %v", w, l.To, got, want)
			}
		}
	})
}

// feasibilityMargin returns the smallest |SINR − (β−slack)| over the links:
// the distance of the decision from its cut, per the oracle.
func feasibilityMargin(pts []geom.Point, p sinr.Params, links []sinr.Link, powers []float64) float64 {
	txs := make([]sinr.Tx, len(links))
	for i, l := range links {
		txs[i] = sinr.Tx{Sender: l.From, Power: powers[i]}
	}
	margin := math.Inf(1)
	for _, l := range links {
		m := math.Abs(oracle.SINR(pts, p, txs, l) - (p.Beta - oracle.FeasibilitySlack))
		if m < margin {
			margin = m
		}
	}
	return margin
}

// FuzzFeasibility fuzzes the feasibility decision differential plus the
// power-scale metamorphic invariant on arbitrary link sets. Decisions are
// only compared when the SINR margin to the β cut exceeds the guard band.
func FuzzFeasibility(f *testing.F) {
	f.Add(int64(42), int64(24), int64(4))
	f.Add(int64(123), int64(12), int64(1))
	f.Add(int64(456), int64(32), int64(6))
	f.Fuzz(func(t *testing.T, seed, nRaw, mRaw int64) {
		n := clampFuzz(nRaw, 4, 40)
		m := clampFuzz(mRaw, 1, 8)
		if m >= n {
			m = n - 1
		}
		pts, in := fuzzInstance(seed, n, 3)
		p := in.Params()
		rng := rand.New(rand.NewSource(seed ^ 0xfea51b1e))
		links, powers := randomLinkSet(rng, in, m)

		guard := 1e-6 * p.Beta
		kOK, kErr := in.SINRFeasible(links, powers)
		oOK, oErr := oracle.SINRFeasible(pts, p, links, powers)
		if (kErr == nil) != (oErr == nil) {
			t.Fatalf("error mismatch: kernel %v oracle %v", kErr, oErr)
		}
		margin := feasibilityMargin(pts, p, links, powers)
		if margin > guard && kOK != oOK {
			t.Fatalf("feasibility mismatch (margin %v): kernel %v oracle %v on %v", margin, kOK, oOK, links)
		}

		// Metamorphic: γ-scaling all powers preserves feasibility.
		scaled := make([]float64, len(powers))
		for i, pw := range powers {
			scaled[i] = pw * 4
		}
		sOK, _ := in.SINRFeasible(links, scaled)
		if kOK && margin > guard && !sOK {
			if sm := feasibilityMargin(pts, p, links, scaled); sm > guard {
				t.Fatalf("feasible set (margin %v) broke under γ=4 power scaling (margin %v)", margin, sm)
			}
		}
	})
}

// FuzzQuadtree fuzzes the hierarchical far-field engine on arbitrary
// (seed, n, α, ε) instances: the kernel's walked SINR must match the
// oracle's recursive naive reference to 1e-12 relative (identical
// open/accept decisions), stay inside the certified interference bracket of
// the exact physics, and the guard-banded feasibility check must never
// reject an exactly-feasible schedule.
func FuzzQuadtree(f *testing.F) {
	f.Add(int64(42), int64(32), int64(2), int64(1))
	f.Add(int64(123), int64(12), int64(0), int64(0))
	f.Add(int64(456), int64(48), int64(3), int64(2))
	f.Add(int64(7), int64(64), int64(1), int64(0))
	// Shape seeds: 512>>8 = 2 (collinear, degenerate bbox), 768>>8 = 3
	// (corner clusters + outposts) — see fuzzQuadPoints.
	f.Add(int64(512), int64(40), int64(2), int64(1))
	f.Add(int64(768), int64(56), int64(1), int64(2))
	f.Fuzz(func(t *testing.T, seed, nRaw, alphaSel, epsSel int64) {
		n := clampFuzz(nRaw, 4, 64)
		alpha := diffAlphas[clampFuzz(alphaSel, 0, int64(len(diffAlphas)-1))]
		eps := quadEpsSweep[clampFuzz(epsSel, 0, int64(len(quadEpsSweep)-1))]
		pts := fuzzQuadPoints(seed, n)
		p0 := sinr.DefaultParams()
		p0.Alpha = alpha
		in := sinr.MustInstance(pts, p0)
		p := in.Params()
		q, err := in.QuadTree(eps)
		if err != nil {
			t.Fatal(err)
		}
		ce := q.CertifiedMaxRelError()
		sc := q.NewScratch()
		rng := rand.New(rand.NewSource(seed ^ 0x9afd7ee1))

		txs := farTxSet(rng, in, 1+n/3)
		sc.Accumulate(txs)
		for trial := 0; trial < 6; trial++ {
			tx := txs[rng.Intn(len(txs))]
			l := sinr.Link{From: tx.Sender, To: rng.Intn(n)}
			if l.From == l.To {
				continue
			}
			got := sc.LinkSINR(txs, l, tx.Power)
			want := oracle.QuadLinkSINR(pts, p, eps, txs, l, tx.Power)
			if !diffClose(got, want) {
				t.Fatalf("LinkSINR(%v) eps %v: kernel %v oracle %v", l, eps, got, want)
			}
			signal := tx.Power / oracle.PathLoss(oracle.Dist(pts, l.From, l.To), p.Alpha)
			interf := 0.0
			for _, w := range txs {
				if w.Sender != l.From {
					interf += w.Power / oracle.PathLoss(oracle.Dist(pts, w.Sender, l.To), p.Alpha)
				}
			}
			loI := (1 - ce) * interf
			if loI < 0 {
				loI = 0
			}
			lo := signal / (p.Noise + (1+ce)*interf) * (1 - 1e-9)
			hi := signal / (p.Noise + loI) * (1 + 1e-9)
			if got < lo || got > hi {
				t.Fatalf("LinkSINR(%v) eps %v: %v outside certified [%v, %v]", l, eps, got, lo, hi)
			}
		}

		m := clampFuzz(nRaw^seed, 1, 6)
		if m >= n {
			m = n - 1
		}
		links, powers := randomLinkSet(rng, in, m)
		farOK, err := in.SINRFeasibleFarBuf(links, powers, q, nil, sc)
		if err != nil {
			t.Fatal(err)
		}
		exactOK, err := in.SINRFeasible(links, powers)
		if err != nil {
			t.Fatal(err)
		}
		if exactOK && !farOK {
			t.Fatalf("eps %v: quadtree check rejected exactly-feasible %v", eps, links)
		}
	})
}
