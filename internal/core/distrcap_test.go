package core

import (
	"context"
	"testing"

	"sinrconn/internal/power"
	"sinrconn/internal/sim"
	"sinrconn/internal/sinr"
)

// initCoreLinks builds an Init tree on a uniform instance and returns its
// low-degree core links — the candidate set Distr-Cap is designed for.
func initCoreLinks(t *testing.T, in *sinr.Instance, seed int64) []sinr.Link {
	t.Helper()
	res, err := Init(context.Background(), in, InitConfig{Channel: sim.Config{Seed: seed}})
	if err != nil {
		t.Fatal(err)
	}
	var cand []sinr.Link
	for _, tl := range LowDegreeSubset(res.Tree, 0) {
		cand = append(cand, tl.L)
	}
	if len(cand) == 0 {
		t.Fatal("empty candidate set")
	}
	return cand
}

func TestDistrCapSelectsAndInvariantHolds(t *testing.T) {
	in := uniformInstance(t, 30, 96)
	cand := initCoreLinks(t, in, 3)
	res := DistrCap(in, cand, DistrCapConfig{Seed: 7})
	if len(res.Selected) == 0 {
		t.Fatal("Distr-Cap selected nothing")
	}
	if res.Phases == 0 || res.SlotPairs < res.Phases {
		t.Errorf("phases=%d slotPairs=%d", res.Phases, res.SlotPairs)
	}
	// Lemmas 17–18: the Eqn-3 invariant holds on the selection.
	if !eqn3Holds(in, res.Selected, DefaultDistrTau) {
		t.Error("Eqn3 invariant violated by Distr-Cap output")
	}
	// Section 8.2.3: a feasible power assignment exists.
	if _, _, err := power.Solve(in, res.Selected); err != nil {
		t.Errorf("Distr-Cap selection not power-feasible: %v", err)
	}
	// One link per node.
	busy := map[int]bool{}
	for _, l := range res.Selected {
		if busy[l.From] || busy[l.To] {
			t.Fatalf("node reused in %v", l)
		}
		busy[l.From] = true
		busy[l.To] = true
	}
}

func TestDistrCapDeterministic(t *testing.T) {
	in := uniformInstance(t, 31, 64)
	cand := initCoreLinks(t, in, 5)
	a := DistrCap(in, cand, DistrCapConfig{Seed: 11})
	b := DistrCap(in, cand, DistrCapConfig{Seed: 11})
	if len(a.Selected) != len(b.Selected) {
		t.Fatal("nondeterministic selection size")
	}
	for i := range a.Selected {
		if a.Selected[i] != b.Selected[i] {
			t.Fatal("nondeterministic selection")
		}
	}
}

func TestDistrCapRepeatsSelectMore(t *testing.T) {
	in := uniformInstance(t, 32, 96)
	cand := initCoreLinks(t, in, 9)
	one := 0
	many := 0
	for seed := int64(0); seed < 5; seed++ {
		one += len(DistrCap(in, cand, DistrCapConfig{Seed: seed, Repeats: 1}).Selected)
		many += len(DistrCap(in, cand, DistrCapConfig{Seed: seed, Repeats: 4}).Selected)
	}
	if many < one {
		t.Errorf("repeats=4 selected %d < repeats=1 selected %d (across seeds)", many, one)
	}
}

func TestDistrCapEmptyCandidates(t *testing.T) {
	in := uniformInstance(t, 33, 8)
	res := DistrCap(in, nil, DistrCapConfig{})
	if len(res.Selected) != 0 || res.Phases != 0 {
		t.Errorf("empty run: %+v", res)
	}
}

func TestDistrCapSelectionFractionReasonable(t *testing.T) {
	// Theorem 20 shape: across seeds, Distr-Cap should select a
	// non-vanishing fraction of a sparse candidate set.
	in := uniformInstance(t, 34, 128)
	cand := initCoreLinks(t, in, 13)
	total := 0
	const seeds = 6
	for seed := int64(0); seed < seeds; seed++ {
		total += len(DistrCap(in, cand, DistrCapConfig{Seed: seed}).Selected)
	}
	avg := float64(total) / seeds
	if avg < float64(len(cand))*0.02 {
		t.Errorf("average selection %.1f of %d candidates is vanishing", avg, len(cand))
	}
}
