package sinr_test

// The differential suite: every kernel-backed quantity pinned against
// internal/oracle (the naive math.Hypot + math.Pow reference) to within
// diffRelTol = 1e-12 relative, across the full scenario matrix
// (internal/workload.Matrix) and α ∈ {2, 2.5, 3, 4} — even integer fast
// path, fractional fallback, odd integer fast path, and the free-space
// boundary. Classification: Type 1 (deterministic; one failure = bug).
//
// This lives in package sinr_test (not sinr) because the oracle imports
// sinr for its data types; the external test package breaks the cycle.

import (
	"math"
	"math/rand"
	"testing"

	"sinrconn/internal/geom"
	"sinrconn/internal/oracle"
	"sinrconn/internal/sinr"
	"sinrconn/internal/workload"
)

const diffRelTol = 1e-12

// diffAlphas spans the kernel's arithmetic regimes: α = 2 (even-integer
// ipow, free-space boundary), 2.5 (half-integer sqrt path), 3 (odd-integer
// default), 4 (even integer).
var diffAlphas = []float64{2, 2.5, 3, 4}

func diffClose(a, b float64) bool {
	if a == b {
		return true
	}
	if math.IsInf(a, 1) && math.IsInf(b, 1) {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= diffRelTol*scale
}

// diffInstance builds the (points, Instance) pair for one matrix cell.
func diffInstance(t *testing.T, spec workload.Spec, alpha float64, seed int64, n int) ([]geom.Point, *sinr.Instance) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pts := spec.Gen(rng, n)
	p := sinr.DefaultParams()
	p.Alpha = alpha
	return pts, sinr.MustInstance(pts, p)
}

// TestDifferentialKernelVsOracle sweeps generator × α and compares C,
// Affectance, SetAffectance, SINR, MeasuredAffectance, Gain, and DistAlpha
// against the oracle on random links, senders, and powers.
func TestDifferentialKernelVsOracle(t *testing.T) {
	for _, spec := range workload.Matrix() {
		for _, alpha := range diffAlphas {
			spec, alpha := spec, alpha
			t.Run(spec.Name+"/"+floatName(alpha), func(t *testing.T) {
				for seed := int64(1); seed <= 3; seed++ {
					n := 24 + int(seed)*4
					pts, in := diffInstance(t, spec, alpha, seed, n)
					p := in.Params()
					rng := rand.New(rand.NewSource(seed * 997))

					txs := make([]sinr.Tx, 0, n/3)
					for len(txs) < n/3 {
						pw := p.SafePower(1+rng.Float64()*8) * (1 + rng.Float64())
						txs = append(txs, sinr.Tx{Sender: rng.Intn(n), Power: pw})
					}

					for trial := 0; trial < 30; trial++ {
						l := sinr.Link{From: rng.Intn(n), To: rng.Intn(n)}
						if l.From == l.To {
							continue
						}
						pu := p.SafePower(in.Length(l)) * (1 + rng.Float64())
						w := rng.Intn(n)
						pw := p.SafePower(4) * (1 + rng.Float64())

						if got, want := in.C(in.Length(l), pu), oracle.C(p, oracle.Dist(pts, l.From, l.To), pu); !diffClose(got, want) {
							t.Fatalf("seed %d C(%v): kernel %v oracle %v", seed, l, got, want)
						}
						if got, want := in.Affectance(w, pw, l, pu), oracle.Affectance(pts, p, w, pw, l, pu); !diffClose(got, want) {
							t.Fatalf("seed %d Affectance(%d on %v): kernel %v oracle %v", seed, w, l, got, want)
						}
						if got, want := in.SetAffectance(txs, l, pu), oracle.SetAffectance(pts, p, txs, l, pu); !diffClose(got, want) {
							t.Fatalf("seed %d SetAffectance(%v): kernel %v oracle %v", seed, l, got, want)
						}
						if got, want := in.SINR(txs, l), oracle.SINR(pts, p, txs, l); !diffClose(got, want) {
							t.Fatalf("seed %d SINR(%v): kernel %v oracle %v", seed, l, got, want)
						}
						if got, want := in.MeasuredAffectance(txs, l, pu), oracle.MeasuredAffectance(pts, p, txs, l, pu); !diffClose(got, want) {
							t.Fatalf("seed %d MeasuredAffectance(%v): kernel %v oracle %v", seed, l, got, want)
						}
						if got, want := in.DistAlpha(l.From, l.To), oracle.PathLoss(oracle.Dist(pts, l.From, l.To), alpha); !diffClose(got, want) {
							t.Fatalf("seed %d DistAlpha(%v): kernel %v oracle %v", seed, l, got, want)
						}
						if got, want := in.Gain(w, l.To), oracle.Gain(pts, alpha, w, l.To); !diffClose(got, want) {
							t.Fatalf("seed %d Gain(%d,%d): kernel %v oracle %v", seed, w, l.To, got, want)
						}
					}
				}
			})
		}
	}
}

// TestDifferentialFeasibility pins the feasibility *decision* — the bit
// every scheduler branches on — between kernel and oracle on random link
// sets, including sets engineered to be infeasible. Both implementations
// carry the same 1e-9 β slack, and the 1e-12 value agreement keeps every
// decision far from the cut for these instances, so equality is exact.
func TestDifferentialFeasibility(t *testing.T) {
	for _, spec := range workload.Matrix() {
		for _, alpha := range diffAlphas {
			spec, alpha := spec, alpha
			t.Run(spec.Name+"/"+floatName(alpha), func(t *testing.T) {
				for seed := int64(1); seed <= 3; seed++ {
					n := 24
					pts, in := diffInstance(t, spec, alpha, seed, n)
					p := in.Params()
					rng := rand.New(rand.NewSource(seed * 131))

					for trial := 0; trial < 12; trial++ {
						links, powers := randomLinkSet(rng, in, 1+rng.Intn(6))
						kOK, kErr := in.SINRFeasible(links, powers)
						oOK, oErr := oracle.SINRFeasible(pts, p, links, powers)
						if (kErr == nil) != (oErr == nil) {
							t.Fatalf("seed %d error mismatch: kernel %v oracle %v", seed, kErr, oErr)
						}
						if kOK != oOK {
							t.Fatalf("seed %d feasibility mismatch on %v: kernel %v oracle %v", seed, links, kOK, oOK)
						}
						// Affectance formulation agrees with the oracle too.
						pl := sinr.PerLink{Table: map[sinr.Link]float64{}}
						for i, l := range links {
							pl.Table[l] = powers[i]
						}
						aOK := in.Feasible(links, pl)
						oaOK, _ := oracle.Feasible(pts, p, links, powers)
						if aOK != oaOK {
							t.Fatalf("seed %d affectance-feasibility mismatch on %v: kernel %v oracle %v", seed, links, aOK, oaOK)
						}
					}
				}
			})
		}
	}
}

// randomLinkSet draws m links with distinct senders and powers between
// SafePower (comfortably feasible alone) and a fraction of MinPower
// (infeasible alone), so both feasible and infeasible sets appear.
func randomLinkSet(rng *rand.Rand, in *sinr.Instance, m int) ([]sinr.Link, []float64) {
	p := in.Params()
	n := in.Len()
	links := make([]sinr.Link, 0, m)
	powers := make([]float64, 0, m)
	used := map[int]bool{}
	for len(links) < m {
		l := sinr.Link{From: rng.Intn(n), To: rng.Intn(n)}
		if l.From == l.To || used[l.From] {
			continue
		}
		used[l.From] = true
		pw := p.SafePower(in.Length(l)) * (0.25 + 2*rng.Float64())
		links = append(links, l)
		powers = append(powers, pw)
	}
	return links, powers
}

func floatName(f float64) string {
	switch f {
	case 2:
		return "alpha2"
	case 2.5:
		return "alpha2.5"
	case 3:
		return "alpha3"
	case 4:
		return "alpha4"
	}
	return "alpha"
}
