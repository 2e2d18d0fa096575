package core

// Tests of the analysis machinery the proofs lean on: the amenability
// functional of feasible sets (Kesselheim SODA'11, Thm 1, used as Eqn 5 in
// the paper), the C-independence structure of sparse sets (Appendix A),
// and the mean-power average affectance of the low-degree core (Lemma 14).

import (
	"context"
	"testing"

	"sinrconn/internal/power"
	"sinrconn/internal/sim"
	"sinrconn/internal/sinr"
)

// TestAmenabilityBoundedOnFeasibleSets checks the Eqn-5 ingredient of
// Theorem 20: for a feasible link set R, f_ℓ(R) is bounded by a constant
// for every link ℓ. We build feasible sets via CentralCapacity (which
// guarantees power-control feasibility) and measure the functional.
func TestAmenabilityBoundedOnFeasibleSets(t *testing.T) {
	worst := 0.0
	for seed := int64(0); seed < 5; seed++ {
		in := uniformInstance(t, 90+seed, 64)
		ires, err := Init(context.Background(), in, InitConfig{Channel: sim.Config{Seed: seed}})
		if err != nil {
			t.Fatal(err)
		}
		sub := LowDegreeSubset(ires.Tree, 0)
		links := make([]sinr.Link, len(sub))
		for i, tl := range sub {
			links[i] = tl.L
		}
		feasible := CentralCapacity(in, links, 0)
		if len(feasible) < 2 {
			continue
		}
		// Certify feasibility first (the premise of the bound).
		if _, _, err := power.Solve(in, feasible); err != nil {
			t.Fatalf("seed %d: premise broken: %v", seed, err)
		}
		maxLen := 0.0
		for _, l := range feasible {
			if ln := in.Length(l); ln > maxLen {
				maxLen = ln
			}
		}
		uni := sinr.UniformFor(in.Params(), maxLen)
		lin := sinr.NoiseSafeLinear(in.Params())
		// f_ℓ(R) for every ℓ in the instance's candidate pool.
		for _, l := range links {
			f := 0.0
			for _, o := range feasible {
				f += amenabilityF(in, l, o, uni, lin)
			}
			if f > worst {
				worst = f
			}
		}
	}
	// "O(1)" with our τ: generous constant bound.
	if worst > 12 {
		t.Errorf("amenability functional reached %v on feasible sets (want O(1))", worst)
	}
	if worst == 0 {
		t.Error("functional never exercised")
	}
}

// TestIndependencePartitionConstantOnSparseCore checks Lemma 23's engine:
// the O(1)-sparse low-degree core partitions into a bounded number of
// C-independent classes, independent of n.
func TestIndependencePartitionConstantOnSparseCore(t *testing.T) {
	var counts []int
	for _, n := range []int{32, 64, 128} {
		in := uniformInstance(t, int64(95+n), n)
		ires, err := Init(context.Background(), in, InitConfig{Channel: sim.Config{Seed: 3}})
		if err != nil {
			t.Fatal(err)
		}
		sub := LowDegreeSubset(ires.Tree, 0)
		links := make([]sinr.Link, len(sub))
		for i, tl := range sub {
			links[i] = tl.L
		}
		classes := independentPartition(in, links, 2)
		counts = append(counts, len(classes))
	}
	// Bounded and not growing drastically with n.
	for _, c := range counts {
		if c > 24 {
			t.Fatalf("partition classes = %v (want O(1) per size)", counts)
		}
	}
	if counts[2] > 3*counts[0]+6 {
		t.Errorf("class count grows with n: %v", counts)
	}
}

// TestLemma14AvgAffectanceOrderUpsilon checks Lemma 14's shape: the
// average in-affectance of T(M) under mean power is O(Υ) — concretely,
// avg/Υ stays below a constant across sizes.
func TestLemma14AvgAffectanceOrderUpsilon(t *testing.T) {
	for _, n := range []int{32, 64, 128} {
		in := uniformInstance(t, int64(99+n), n)
		ires, err := Init(context.Background(), in, InitConfig{Channel: sim.Config{Seed: 5}})
		if err != nil {
			t.Fatal(err)
		}
		sub := LowDegreeSubset(ires.Tree, 0)
		links := make([]sinr.Link, len(sub))
		for i, tl := range sub {
			links[i] = tl.L
		}
		pa := sinr.NoiseSafeMean(in.Params(), in.Delta())
		avg := avgAffectance(in, links, pa)
		norm := avg / in.Upsilon()
		if norm > 2.0 {
			t.Errorf("n=%d: avg affectance %v = %v·Υ (want O(Υ) with small constant)",
				n, avg, norm)
		}
	}
}

// TestEqn3ImpliesPowerSolvable is the bridge of Section 8.2.3: sets
// maintained under the Eqn-3 invariant (with our τ) always admit a
// feasible power vector. Verified over many Distr-Cap runs.
func TestEqn3ImpliesPowerSolvable(t *testing.T) {
	fails := 0
	runs := 0
	for seed := int64(0); seed < 8; seed++ {
		in := uniformInstance(t, 200+seed, 48)
		ires, err := Init(context.Background(), in, InitConfig{Channel: sim.Config{Seed: seed}})
		if err != nil {
			t.Fatal(err)
		}
		sub := LowDegreeSubset(ires.Tree, 0)
		links := make([]sinr.Link, len(sub))
		for i, tl := range sub {
			links[i] = tl.L
		}
		d := DistrCap(in, links, DistrCapConfig{Seed: seed, Repeats: 3})
		if len(d.Selected) == 0 {
			continue
		}
		runs++
		if !eqn3Holds(in, d.Selected, DefaultDistrTau) {
			t.Fatalf("seed %d: invariant broken", seed)
		}
		if _, _, err := power.Solve(in, d.Selected); err != nil {
			fails++
		}
	}
	if runs == 0 {
		t.Fatal("no runs selected anything")
	}
	if fails > 0 {
		t.Errorf("%d of %d invariant-satisfying sets were not power-solvable", fails, runs)
	}
}
