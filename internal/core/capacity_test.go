package core

import (
	"context"
	"math/rand"
	"testing"

	"sinrconn/internal/geom"
	"sinrconn/internal/power"
	"sinrconn/internal/sim"
	"sinrconn/internal/sinr"
)

func pairLinks(n int) []sinr.Link {
	var links []sinr.Link
	for i := 0; i+1 < n; i += 2 {
		links = append(links, sinr.Link{From: i, To: i + 1})
	}
	return links
}

func TestCentralCapacityEmpty(t *testing.T) {
	in := uniformInstance(t, 1, 4)
	if got := CentralCapacity(in, nil, 0); len(got) != 0 {
		t.Errorf("CentralCapacity(empty) = %v", got)
	}
}

func TestCentralCapacitySelectsDisjointFeasible(t *testing.T) {
	in := uniformInstance(t, 2, 60)
	links := pairLinks(60)
	sel := CentralCapacity(in, links, 0)
	if len(sel) == 0 {
		t.Fatal("nothing selected")
	}
	// One link per node.
	busy := map[int]bool{}
	for _, l := range sel {
		if busy[l.From] || busy[l.To] {
			t.Fatalf("node reused in %v", l)
		}
		busy[l.From] = true
		busy[l.To] = true
	}
	// Invariant holds by construction.
	if !eqn3Holds(in, sel, 0) {
		t.Error("Eqn3 invariant violated")
	}
	// Kesselheim's guarantee: a feasible power assignment exists.
	if _, _, err := power.Solve(in, sel); err != nil {
		t.Errorf("selected set not power-control feasible: %v", err)
	}
}

func TestCentralCapacityRespectsNodeConflicts(t *testing.T) {
	in := uniformInstance(t, 3, 12)
	// Two links sharing node 0: at most one can be selected.
	links := []sinr.Link{{From: 0, To: 1}, {From: 0, To: 2}, {From: 2, To: 0}}
	sel := CentralCapacity(in, links, 0)
	seen := map[int]int{}
	for _, l := range sel {
		seen[l.From]++
		seen[l.To]++
	}
	for node, cnt := range seen {
		if cnt > 1 {
			t.Errorf("node %d in %d selected links", node, cnt)
		}
	}
}

func TestEqn3HoldsDetectsViolation(t *testing.T) {
	// Two crossed links violate the invariant for small τ.
	in := lineInstanceCore(t, 0, 1, 2, 3)
	bad := []sinr.Link{{From: 0, To: 2}, {From: 3, To: 1}}
	if eqn3Holds(in, bad, 0.1) {
		t.Error("Eqn3Holds accepted crossed links at tiny tau")
	}
	if !eqn3Holds(in, nil, 0) {
		t.Error("Eqn3Holds rejected empty set")
	}
}

func TestCentralCapacityLargerTauSelectsMore(t *testing.T) {
	in := uniformInstance(t, 5, 80)
	links := pairLinks(80)
	small := CentralCapacity(in, links, 0.2)
	large := CentralCapacity(in, links, 1.5)
	if len(large) < len(small) {
		t.Errorf("tau=1.5 selected %d < tau=0.2 selected %d", len(large), len(small))
	}
}

func TestLowDegreeSubset(t *testing.T) {
	in := uniformInstance(t, 6, 96)
	res, err := Init(context.Background(), in, InitConfig{Channel: sim.Config{Seed: 4}})
	if err != nil {
		t.Fatal(err)
	}
	core := LowDegreeSubset(res.Tree, 0) // default rho
	if len(core) == 0 {
		t.Fatal("empty low-degree core")
	}
	deg := res.Tree.Degrees()
	for _, tl := range core {
		if deg[tl.L.From] > DefaultRho || deg[tl.L.To] > DefaultRho {
			t.Fatalf("high-degree endpoint in core link %v", tl.L)
		}
	}
	// Theorem 13 shape: the core retains a constant fraction.
	frac := RetentionFraction(res.Tree, 0)
	if frac < 0.5 {
		t.Errorf("retention fraction %v < 0.5", frac)
	}
	// Tiny rho may strip everything but must never panic.
	_ = LowDegreeSubset(res.Tree, 1)
}

func TestRetentionFractionEmptyTree(t *testing.T) {
	in := uniformInstance(t, 7, 4)
	res, err := Init(context.Background(), in, InitConfig{Channel: sim.Config{Seed: 1}, Participants: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	if got := RetentionFraction(res.Tree, 0); got != 1 {
		t.Errorf("RetentionFraction(empty) = %v", got)
	}
}

func lineInstanceCore(t testing.TB, xs ...float64) *sinr.Instance {
	t.Helper()
	return lineInst(xs...)
}

func lineInst(xs ...float64) *sinr.Instance {
	pts := make([]geom.Point, len(xs))
	for i, x := range xs {
		pts[i] = geom.Point{X: x}
	}
	return sinr.MustInstance(pts, sinr.DefaultParams())
}

func TestSampleProb(t *testing.T) {
	if got := SampleProb(10, 0.25); got <= 0 || got > 1 {
		t.Errorf("SampleProb = %v", got)
	}
	if got := SampleProb(0.5, 0); got != 1 {
		t.Errorf("tiny upsilon should clamp to 1, got %v", got)
	}
	// Larger upsilon → smaller probability.
	if SampleProb(100, 0.25) >= SampleProb(10, 0.25) {
		t.Error("SampleProb not decreasing in upsilon")
	}
}

func TestVerifyPairBasics(t *testing.T) {
	in := uniformInstance(t, 8, 40)
	pa := sinr.NoiseSafeMean(in.Params(), in.Delta())
	if got, energy := VerifyPairEnergy(in, nil, pa); got != nil || energy != 0 {
		t.Errorf("VerifyPairEnergy(empty) = %v, %v", got, energy)
	}
	// A single isolated link always survives.
	links := []sinr.Link{{From: 0, To: 1}}
	got, _ := VerifyPairEnergy(in, links, pa)
	if len(got) != 1 || got[0] != links[0] {
		t.Errorf("VerifyPairEnergy(single) = %v", got)
	}
}

func TestVerifyPairHalfDuplex(t *testing.T) {
	// Chain links 0→1 and 1→2: node 1 transmits (as sender of 1→2) and so
	// cannot receive 0→1.
	in := lineInst(0, 1, 2)
	pa := sinr.NoiseSafeLinear(in.Params())
	got, _ := VerifyPairEnergy(in, []sinr.Link{{From: 0, To: 1}, {From: 1, To: 2}}, pa)
	for _, l := range got {
		if l == (sinr.Link{From: 0, To: 1}) {
			t.Error("half-duplex violated: 0→1 succeeded while 1 transmits")
		}
	}
}

func TestVerifyPairDuplicateSender(t *testing.T) {
	in := lineInst(0, 1, 2)
	pa := sinr.NoiseSafeLinear(in.Params())
	got, _ := VerifyPairEnergy(in, []sinr.Link{{From: 0, To: 1}, {From: 0, To: 2}}, pa)
	if len(got) > 1 {
		t.Errorf("duplicate sender served %d links", len(got))
	}
}

func TestVerifyPairResultFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		in := uniformInstance(t, int64(trial+20), 40)
		pa := sinr.NoiseSafeMean(in.Params(), in.Delta())
		got, _ := VerifyPairEnergy(in, pairLinks(40), pa)
		if len(got) == 0 {
			continue
		}
		if !in.Feasible(got, pa) {
			t.Fatalf("trial %d: VerifyPairEnergy output infeasible", trial)
		}
		_ = rng
	}
}

func TestMeanSample(t *testing.T) {
	// Realistic candidates: the low-degree core of an Init tree (what
	// TreeViaCapacity actually feeds in), sampled at the paper's 1/(4γ₁Υ).
	in := uniformInstance(t, 10, 60)
	res, err := Init(context.Background(), in, InitConfig{Channel: sim.Config{Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	var cand []sinr.Link
	for _, tl := range LowDegreeSubset(res.Tree, 0) {
		cand = append(cand, tl.L)
	}
	pa := sinr.NoiseSafeMean(in.Params(), in.Delta())
	q := SampleProb(in.Upsilon(), 0.25)
	total := 0
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sel, _ := MeanSampleEnergy(in, cand, pa, q, rng)
		total += len(sel)
		if len(sel) > 0 && !in.Feasible(sel, pa) {
			t.Fatalf("seed %d: MeanSampleEnergy output infeasible", seed)
		}
	}
	if total == 0 {
		t.Error("MeanSampleEnergy never selected anything over 8 seeds")
	}
	rng := rand.New(rand.NewSource(1))
	if got, _ := MeanSampleEnergy(in, cand, pa, 0, rng); got != nil {
		t.Errorf("q=0 selected %v", got)
	}
	// q > 1 clamps to 1 (every candidate tries at once).
	sel, _ := MeanSampleEnergy(in, cand, pa, 5, rng)
	if len(sel) > 0 && !in.Feasible(sel, pa) {
		t.Error("clamped q output infeasible")
	}
}
