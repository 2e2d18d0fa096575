package sinr_test

// Contract suite for the quadtree far field: what its callers rely on —
// the certified bracket, exact winners, and the guard-banded feasibility
// check SINRFeasibleFarBuf built on top of it — at the ε sweep
// {0.25, 1, 2.5}, which straddles the certified ε = 1 point where the lower
// interference bound clamps at zero. All Type 1 (deterministic; one
// failure = bug). quadtree_test.go pins the walk itself to its oracle
// transcription.

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"sinrconn/internal/oracle"
	"sinrconn/internal/sinr"
	"sinrconn/internal/workload"
)

var farEpsSweep = []float64{0.25, 1.0, 2.5}

// farPlan returns the quadtree plan over in at the requested ε.
func farPlan(t *testing.T, in *sinr.Instance, eps float64) *sinr.QuadTree {
	t.Helper()
	q, err := in.QuadTree(eps)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestFarFieldErrorBound asserts the contract WithMaxRelError sells: the
// quadtree's far-field SINR
// stays within the certified (1±ε) bracket of the *exact* physics
// (oracle-computed), across the scenario matrix × α × ε.
func TestFarFieldErrorBound(t *testing.T) {
	const slack = 1e-9 // floating headroom on the analytic bound
	for _, spec := range workload.Matrix() {
		for _, alpha := range diffAlphas {
			spec, alpha := spec, alpha
			t.Run(spec.Name+"/"+floatName(alpha), func(t *testing.T) {
				for seed := int64(1); seed <= 2; seed++ {
					n := 64
					pts, in := diffInstance(t, spec, alpha, seed, n)
					p := in.Params()
					rng := rand.New(rand.NewSource(seed * 613))
					for _, eps := range farEpsSweep {
						txs := farTxSet(rng, in, n/2)
						q := farPlan(t, in, eps)
						ce := q.CertifiedMaxRelError()
						sc := q.NewScratch()
						sc.Accumulate(txs)
						for _, tx := range txs {
							for trial := 0; trial < 4; trial++ {
								l := sinr.Link{From: tx.Sender, To: rng.Intn(n)}
								if l.From == l.To {
									continue
								}
								far := sc.LinkSINR(txs, l, tx.Power)
								// The certified bound is on the interference
								// sum: I_far ∈ [(1−ε)·I, (1+ε)·I] (clamped at
								// 0), with signal and noise exact. Bound the
								// SINR through it so the bracket stays valid
								// for certified ε ≥ 1.
								signal := tx.Power / oracle.PathLoss(oracle.Dist(pts, l.From, l.To), p.Alpha)
								interf := 0.0
								for _, w := range txs {
									if w.Sender == l.From {
										continue
									}
									interf += w.Power / oracle.PathLoss(oracle.Dist(pts, w.Sender, l.To), p.Alpha)
								}
								if math.IsInf(signal, 1) || math.IsInf(interf, 1) {
									continue // co-located degeneracies
								}
								loI := (1 - ce) * interf
								if loI < 0 {
									loI = 0
								}
								lo := signal / (p.Noise + (1+ce)*interf) * (1 - slack)
								hi := signal / (p.Noise + loI) * (1 + slack)
								if far < lo || far > hi {
									t.Fatalf("seed %d eps %v (cert %v) SINR(%v): far %v outside [%v, %v] (signal %v interf %v)",
										seed, eps, ce, l, far, lo, hi, signal, interf)
								}
							}
						}
					}
				}
			})
		}
	}
}

// TestFarFeasibilityGuardBand asserts the guard-band semantics of
// SINRFeasibleFarBuf: it never rejects a schedule the exact check accepts
// (completeness), an acceptance certifies exact SINR ≥ β·(1−ε)/(1+ε) on
// every link, and the decision matches a naive transcription over the
// oracle's quadtree walk.
func TestFarFeasibilityGuardBand(t *testing.T) {
	const slack = 1e-9
	for _, spec := range workload.Matrix() {
		for _, alpha := range diffAlphas {
			spec, alpha := spec, alpha
			t.Run(spec.Name+"/"+floatName(alpha), func(t *testing.T) {
				for seed := int64(1); seed <= 3; seed++ {
					pts, in := diffInstance(t, spec, alpha, seed, 32)
					p := in.Params()
					rng := rand.New(rand.NewSource(seed * 839))
					for _, eps := range farEpsSweep {
						q := farPlan(t, in, eps)
						sc := q.NewScratch()
						for trial := 0; trial < 10; trial++ {
							links, powers := randomLinkSet(rng, in, 1+rng.Intn(6))
							exactOK, err := in.SINRFeasible(links, powers)
							if err != nil {
								t.Fatal(err)
							}
							txs := make([]sinr.Tx, len(links))
							for i, l := range links {
								txs[i] = sinr.Tx{Sender: l.From, Power: powers[i]}
							}
							farOK, err := in.SINRFeasibleFarBuf(links, powers, q, nil, sc)
							if err != nil {
								t.Fatal(err)
							}
							if exactOK && !farOK {
								t.Fatalf("seed %d eps %v: far check rejected an exactly-feasible schedule %v",
									seed, eps, links)
							}
							ce := q.CertifiedMaxRelError()
							band := 1 + ce
							oOK := true
							for i, l := range links {
								if oracle.QuadLinkSINR(pts, p, eps, txs, l, powers[i])*band < p.Beta-oracle.FeasibilitySlack {
									oOK = false
								}
								if !farOK || ce >= 1 {
									continue
								}
								floor := p.Beta * (1 - ce) / (1 + ce) * (1 - slack)
								if s := oracle.SINR(pts, p, txs, l); s < floor-oracle.FeasibilitySlack {
									t.Fatalf("seed %d eps %v: accepted link %v has exact SINR %v below the band floor %v",
										seed, eps, l, s, floor)
								}
							}
							if farOK != oOK {
								t.Fatalf("seed %d eps %v: far feasibility kernel %v oracle %v on %v",
									seed, eps, farOK, oOK, links)
							}
						}
					}
				}
			})
		}
	}
}

// TestFarFieldResolveWinnerExact asserts Resolve's refinement contract at
// ε = 1: the decoded winner and its received power are exactly the
// strongest sender — never perturbed by the approximation — including when the strongest sender sits far from the listener, and the
// interference total stays inside the certified band.
func TestFarFieldResolveWinnerExact(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	pts := workload.UniformSeeded(42, 300)
	p := sinr.DefaultParams()
	in := sinr.MustInstance(pts, p)
	q := farPlan(t, in, 1.0)
	sc := q.NewScratch()
	ce := q.CertifiedMaxRelError()
	for trial := 0; trial < 50; trial++ {
		txs := farTxSet(rng, in, 60)
		// Crank one sender's power so the true winner at many
		// listeners lies in the far field, forcing refinement.
		txs[0].Power *= 1e6
		sc.Accumulate(txs)
		for probe := 0; probe < 20; probe++ {
			v := rng.Intn(in.Len())
			listening := true
			for _, tx := range txs {
				if tx.Sender == v {
					listening = false
					break
				}
			}
			if !listening {
				continue
			}
			best, bestRP, total, sat := sc.Resolve(v)
			if sat {
				t.Fatalf("unexpected saturation at %d", v)
			}
			wantBest, wantRP := -1, 0.0
			exactTotal := 0.0
			for k, tx := range txs {
				rp := tx.Power / oracle.PathLoss(oracle.Dist(pts, tx.Sender, v), p.Alpha)
				exactTotal += rp
				if rp > wantRP {
					wantRP = rp
					wantBest = k
				}
			}
			if best != wantBest {
				t.Fatalf("trial %d listener %d: winner %d (rp %v), exact argmax %d (rp %v)",
					trial, v, best, bestRP, wantBest, wantRP)
			}
			if !diffClose(bestRP, wantRP) {
				t.Fatalf("trial %d listener %d: winner rp %v, exact %v", trial, v, bestRP, wantRP)
			}
			if total < exactTotal*(1-ce)*(1-1e-9) || total > exactTotal*(1+ce)*(1+1e-9) {
				t.Fatalf("trial %d listener %d: total %v outside certified band of exact %v (ε=%v)",
					trial, v, total, exactTotal, ce)
			}
		}
	}
}

// TestFarFeasibilityDuplicateSender pins the exported contract: a link set
// with a repeated sender is rejected with ErrDuplicateSender instead of
// silently diverging from the exact check (which sums duplicates).
func TestFarFeasibilityDuplicateSender(t *testing.T) {
	pts := workload.UniformSeeded(3, 16)
	in := sinr.MustInstance(pts, sinr.DefaultParams())
	links := []sinr.Link{{From: 0, To: 1}, {From: 0, To: 2}}
	powers := []float64{100, 100}
	q := farPlan(t, in, 0.5)
	if _, err := in.SINRFeasibleFarBuf(links, powers, q, nil, q.NewScratch()); !errors.Is(err, sinr.ErrDuplicateSender) {
		t.Fatalf("duplicate-sender set returned %v, want ErrDuplicateSender", err)
	}
}
