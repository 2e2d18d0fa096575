package sinr_test

// Hierarchical (quadtree) far-field suite, in three layers (all Type 1 —
// deterministic; one failure = bug):
//
//  1. Plan lockstep — the kernel's pyramid derivation (depth, leaf side,
//     binning, per-level opening radii, certified bound) must equal the
//     oracle's independent naive transcription exactly.
//  2. Differential — the kernel's walked SINR must match the oracle's
//     brute-force recursive reference to 1e-12 relative across the
//     scenario matrix × α × ε (identical open/accept decisions, naive
//     physics inside the branches).
//  3. Certified bound — the walked SINR must bracket the *exact* oracle
//     physics within the plan's certified ε, winners must stay exact, and
//     the guard-banded feasibility check must never reject a schedule the
//     exact check accepts.

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"sinrconn/internal/geom"
	"sinrconn/internal/oracle"
	"sinrconn/internal/sinr"
	"sinrconn/internal/workload"
)

// quadEpsSweep includes a tight bound (ε = 0.1), where a single global
// near ring would swallow most of the instance — the regime the quadtree
// exists for.
var quadEpsSweep = []float64{0.1, 0.5, 2.5}

// farEpsSweep straddles the certified ε = 1 point where the lower
// interference bound clamps at zero. The TestFar* entry points run the
// shared contract checks below at it; the TestQuadtree* ones at quadEpsSweep.
var farEpsSweep = []float64{0.25, 1.0, 2.5}

// farTxSet builds a sender set with distinct senders (the LinkSINR
// contract) at powers spanning comfortably-feasible to marginal.
func farTxSet(rng *rand.Rand, in *sinr.Instance, m int) []sinr.Tx {
	p := in.Params()
	n := in.Len()
	used := map[int]bool{}
	txs := make([]sinr.Tx, 0, m)
	for len(txs) < m && len(used) < n {
		s := rng.Intn(n)
		if used[s] {
			continue
		}
		used[s] = true
		txs = append(txs, sinr.Tx{Sender: s, Power: p.SafePower(1+rng.Float64()*8) * (0.5 + 2*rng.Float64())})
	}
	return txs
}

// TestQuadPlanLockstep pins the kernel plan derivation to the oracle's
// independent transcription: same depth, same leaf side, same opening
// radii, same binning, same certified bound.
func TestQuadPlanLockstep(t *testing.T) {
	for _, spec := range workload.Matrix() {
		for _, alpha := range diffAlphas {
			spec, alpha := spec, alpha
			t.Run(spec.Name+"/"+floatName(alpha), func(t *testing.T) {
				for _, eps := range quadEpsSweep {
					pts, in := diffInstance(t, spec, alpha, 5, 48)
					q, err := in.QuadTree(eps)
					if err != nil {
						t.Fatal(err)
					}
					op := oracle.QuadPlanFor(pts, alpha, eps)
					if q.Levels() != op.Levels || q.LeafCell() != op.Cell {
						t.Fatalf("eps %v: kernel plan (L=%d cell=%v) oracle plan (L=%d cell=%v)",
							eps, q.Levels(), q.LeafCell(), op.Levels, op.Cell)
					}
					if got, want := q.Theta(), op.Theta; got != want {
						t.Fatalf("eps %v: theta kernel %v oracle %v", eps, got, want)
					}
					for lvl := 0; lvl <= q.Levels(); lvl++ {
						if got, want := q.OpenRadius2(lvl), op.OpenRad2[lvl]; got != want {
							t.Fatalf("eps %v level %d: open radius kernel %v oracle %v", eps, lvl, got, want)
						}
					}
					want := oracle.QuadCertifiedErr(op.Theta, alpha, eps)
					if got := q.CertifiedMaxRelError(); got != want {
						t.Fatalf("eps %v: certified error kernel %v oracle %v", eps, got, want)
					}
					if q.CertifiedMaxRelError() > eps {
						t.Fatalf("eps %v: certified error %v exceeds requested bound", eps, q.CertifiedMaxRelError())
					}
					if q.LeafCell() < 1 && q.Levels() > 0 {
						t.Fatalf("eps %v: leaf cell %v below the min-distance normalization", eps, q.LeafCell())
					}
					for i := range pts {
						kx, ky := q.LeafCoords(i)
						ox, oy := op.Leaf(pts[i])
						if kx != ox || ky != oy {
							t.Fatalf("eps %v: node %d binned to (%d,%d) by kernel, (%d,%d) by oracle",
								eps, i, kx, ky, ox, oy)
						}
					}
				}
			})
		}
	}
}

// TestDifferentialQuadtreeVsOracle pins the kernel's hierarchical LinkSINR
// to the oracle's recursive naive reference at 1e-12 relative.
func TestDifferentialQuadtreeVsOracle(t *testing.T) {
	for _, spec := range workload.Matrix() {
		for _, alpha := range diffAlphas {
			spec, alpha := spec, alpha
			t.Run(spec.Name+"/"+floatName(alpha), func(t *testing.T) {
				for seed := int64(1); seed <= 3; seed++ {
					n := 40 + int(seed)*8
					pts, in := diffInstance(t, spec, alpha, seed, n)
					p := in.Params()
					rng := rand.New(rand.NewSource(seed * 271))
					for _, eps := range quadEpsSweep {
						q, err := in.QuadTree(eps)
						if err != nil {
							t.Fatal(err)
						}
						sc := q.NewScratch()
						txs := farTxSet(rng, in, n/2)
						sc.Accumulate(txs)
						for trial := 0; trial < 12; trial++ {
							tx := txs[rng.Intn(len(txs))]
							l := sinr.Link{From: tx.Sender, To: rng.Intn(n)}
							if l.From == l.To {
								continue
							}
							got := sc.LinkSINR(txs, l, tx.Power)
							want := oracle.QuadLinkSINR(pts, p, eps, txs, l, tx.Power)
							if !diffClose(got, want) {
								t.Fatalf("seed %d eps %v LinkSINR(%v): kernel %v oracle %v",
									seed, eps, l, got, want)
							}
						}
					}
				}
			})
		}
	}
}

// TestQuadtreeErrorBound asserts the contract WithMaxRelError sells for the
// hierarchical engine: the walked SINR stays within the certified (1±ε)
// bracket of the *exact* physics (oracle-computed), across the scenario
// matrix × α × ε — including the tight ε = 0.1.
func TestQuadtreeErrorBound(t *testing.T) { checkErrorBound(t, quadEpsSweep) }

// TestFarFieldErrorBound is checkErrorBound across the certified ε = 1 point.
func TestFarFieldErrorBound(t *testing.T) { checkErrorBound(t, farEpsSweep) }

func checkErrorBound(t *testing.T, epsSweep []float64) {
	const slack = 1e-9
	for _, spec := range workload.Matrix() {
		for _, alpha := range diffAlphas {
			spec, alpha := spec, alpha
			t.Run(spec.Name+"/"+floatName(alpha), func(t *testing.T) {
				for seed := int64(1); seed <= 2; seed++ {
					n := 64
					pts, in := diffInstance(t, spec, alpha, seed, n)
					p := in.Params()
					rng := rand.New(rand.NewSource(seed * 613))
					for _, eps := range epsSweep {
						q, err := in.QuadTree(eps)
						if err != nil {
							t.Fatal(err)
						}
						ce := q.CertifiedMaxRelError()
						sc := q.NewScratch()
						txs := farTxSet(rng, in, n/2)
						sc.Accumulate(txs)
						for _, tx := range txs {
							for trial := 0; trial < 4; trial++ {
								l := sinr.Link{From: tx.Sender, To: rng.Intn(n)}
								if l.From == l.To {
									continue
								}
								far := sc.LinkSINR(txs, l, tx.Power)
								signal := tx.Power / oracle.PathLoss(oracle.Dist(pts, l.From, l.To), p.Alpha)
								interf := 0.0
								for _, w := range txs {
									if w.Sender == l.From {
										continue
									}
									interf += w.Power / oracle.PathLoss(oracle.Dist(pts, w.Sender, l.To), p.Alpha)
								}
								if math.IsInf(signal, 1) || math.IsInf(interf, 1) {
									continue
								}
								loI := (1 - ce) * interf
								if loI < 0 {
									loI = 0
								}
								lo := signal / (p.Noise + (1+ce)*interf) * (1 - slack)
								hi := signal / (p.Noise + loI) * (1 + slack)
								if far < lo || far > hi {
									t.Fatalf("seed %d eps %v (cert %v) SINR(%v): quadtree %v outside [%v, %v] (signal %v interf %v)",
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

// TestQuadtreeFeasibilityGuardBand asserts the guard-band semantics of
// SINRFeasibleFarBuf: it never rejects a schedule the exact check accepts
// (completeness), an acceptance certifies exact SINR ≥ β·(1−ε)/(1+ε) on
// every link, and the decision matches the oracle's naive transcription.
func TestQuadtreeFeasibilityGuardBand(t *testing.T) { checkFeasibilityGuardBand(t, quadEpsSweep) }

// TestFarFeasibilityGuardBand is checkFeasibilityGuardBand across the
// certified ε = 1 point.
func TestFarFeasibilityGuardBand(t *testing.T) { checkFeasibilityGuardBand(t, farEpsSweep) }

func checkFeasibilityGuardBand(t *testing.T, epsSweep []float64) {
	const slack = 1e-9
	for _, spec := range workload.Matrix() {
		for _, alpha := range diffAlphas {
			spec, alpha := spec, alpha
			t.Run(spec.Name+"/"+floatName(alpha), func(t *testing.T) {
				for seed := int64(1); seed <= 3; seed++ {
					pts, in := diffInstance(t, spec, alpha, seed, 32)
					p := in.Params()
					rng := rand.New(rand.NewSource(seed * 839))
					for _, eps := range epsSweep {
						q, err := in.QuadTree(eps)
						if err != nil {
							t.Fatal(err)
						}
						sc := q.NewScratch()
						for trial := 0; trial < 10; trial++ {
							links, powers := randomLinkSet(rng, in, 1+rng.Intn(6))
							farOK, err := in.SINRFeasibleFarBuf(links, powers, q, nil, sc)
							if err != nil {
								t.Fatal(err)
							}
							exactOK, err := in.SINRFeasible(links, powers)
							if err != nil {
								t.Fatal(err)
							}
							if exactOK && !farOK {
								t.Fatalf("seed %d eps %v: quadtree check rejected an exactly-feasible schedule %v",
									seed, eps, links)
							}
							if ce := q.CertifiedMaxRelError(); farOK && ce < 1 {
								txs := make([]sinr.Tx, len(links))
								for i, l := range links {
									txs[i] = sinr.Tx{Sender: l.From, Power: powers[i]}
								}
								floor := p.Beta * (1 - ce) / (1 + ce) * (1 - slack)
								for _, l := range links {
									if s := oracle.SINR(pts, p, txs, l); s < floor-oracle.FeasibilitySlack {
										t.Fatalf("seed %d eps %v: accepted link %v has exact SINR %v below the band floor %v",
											seed, eps, l, s, floor)
									}
								}
							}
							oOK, err := oracle.QuadSINRFeasible(pts, p, eps, links, powers)
							if err != nil {
								t.Fatal(err)
							}
							if farOK != oOK {
								t.Fatalf("seed %d eps %v: quadtree feasibility kernel %v oracle %v on %v",
									seed, eps, farOK, oOK, links)
							}
						}
					}
				}
			})
		}
	}
}

// TestQuadtreeResolveWinnerExact asserts Resolve's refinement contract for
// the hierarchical engine: the decoded winner and its received power are
// exactly the strongest sender — never perturbed by aggregation — including
// when the strongest sender hides deep in an otherwise-acceptable coarse
// node, and the interference total stays inside the certified band.
func TestQuadtreeResolveWinnerExact(t *testing.T) { checkResolveWinnerExact(t, 0.1) }

// TestFarFieldResolveWinnerExact is checkResolveWinnerExact at the certified
// ε = 1 point.
func TestFarFieldResolveWinnerExact(t *testing.T) { checkResolveWinnerExact(t, 1.0) }

func checkResolveWinnerExact(t *testing.T, epsList ...float64) {
	rng := rand.New(rand.NewSource(99))
	pts := workload.UniformSeeded(42, 300)
	p := sinr.DefaultParams()
	in := sinr.MustInstance(pts, p)
	for _, eps := range epsList {
		q, err := in.QuadTree(eps)
		if err != nil {
			t.Fatal(err)
		}
		sc := q.NewScratch()
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
					t.Fatalf("eps %v trial %d listener %d: winner %d (rp %v), exact argmax %d (rp %v)",
						eps, trial, v, best, bestRP, wantBest, wantRP)
				}
				if !diffClose(bestRP, wantRP) {
					t.Fatalf("eps %v trial %d listener %d: winner rp %v, exact %v", eps, trial, v, bestRP, wantRP)
				}
				ce := q.CertifiedMaxRelError()
				if total < exactTotal*(1-ce)*(1-1e-9) || total > exactTotal*(1+ce)*(1+1e-9) {
					t.Fatalf("eps %v trial %d listener %d: total %v outside certified band of exact %v",
						eps, trial, v, total, exactTotal)
				}
			}
		}
	}
}

// TestQuadtreeExtendReuse asserts a plan survives Extend when the grown
// points stay inside the root square (same geometry, new points binned) and
// is rebuilt to a correct plan otherwise.
func TestQuadtreeExtendReuse(t *testing.T) {
	pts := workload.UniformSeeded(7, 120)
	in := sinr.MustInstance(pts, sinr.DefaultParams())
	q, err := in.QuadTree(0.5)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := geom.BoundingBox(pts)
	inside := []geom.Point{
		{X: (lo.X + hi.X) / 2.001, Y: (lo.Y + hi.Y) / 2.003},
		{X: lo.X + 1.7, Y: hi.Y - 1.3},
	}
	grown, err := in.Extend(inside)
	if err != nil {
		t.Fatal(err)
	}
	gq, err := grown.QuadTree(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if gq.LeafCell() != q.LeafCell() || gq.Levels() != q.Levels() {
		t.Fatalf("interior extend rebuilt the plan: cell %v→%v levels %d→%d",
			q.LeafCell(), gq.LeafCell(), q.Levels(), gq.Levels())
	}
	outside := []geom.Point{{X: hi.X + 50, Y: hi.Y + 50}}
	grown2, err := in.Extend(outside)
	if err != nil {
		t.Fatal(err)
	}
	gq2, err := grown2.QuadTree(0.5)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := sinr.MustInstance(grown2.Points(), grown2.Params()).QuadTree(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if gq2.LeafCell() != fresh.LeafCell() || gq2.Levels() != fresh.Levels() {
		t.Fatalf("exterior extend plan (cell %v, L=%d) differs from fresh build (cell %v, L=%d)",
			gq2.LeafCell(), gq2.Levels(), fresh.LeafCell(), fresh.Levels())
	}
}

// TestQuadtreeFeasibilityDuplicateSender pins the exported contract: a link
// set with a repeated sender is rejected with ErrDuplicateSender instead of
// silently diverging from the exact check (which sums duplicates).
func TestQuadtreeFeasibilityDuplicateSender(t *testing.T) { checkDuplicateSender(t, 0.5) }

// TestFarFeasibilityDuplicateSender is checkDuplicateSender on a plan past
// the certified ε = 1 point.
func TestFarFeasibilityDuplicateSender(t *testing.T) { checkDuplicateSender(t, 2.5) }

func checkDuplicateSender(t *testing.T, eps float64) {
	pts := workload.UniformSeeded(3, 16)
	in := sinr.MustInstance(pts, sinr.DefaultParams())
	q, err := in.QuadTree(eps)
	if err != nil {
		t.Fatal(err)
	}
	links := []sinr.Link{{From: 0, To: 1}, {From: 0, To: 2}}
	powers := []float64{100, 100}
	if _, err := in.SINRFeasibleFarBuf(links, powers, q, nil, q.NewScratch()); !errors.Is(err, sinr.ErrDuplicateSender) {
		t.Fatalf("duplicate-sender set returned %v, want ErrDuplicateSender", err)
	}
}

// TestQuadtreeInvalidEps pins constructor validation.
func TestQuadtreeInvalidEps(t *testing.T) {
	pts := workload.UniformSeeded(3, 8)
	in := sinr.MustInstance(pts, sinr.DefaultParams())
	for _, eps := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if _, err := in.QuadTree(eps); err == nil {
			t.Fatalf("QuadTree accepted eps %v", eps)
		}
	}
}
