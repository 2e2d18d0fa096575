package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"sinrconn/internal/sim"
	"sinrconn/internal/sinr"
	"sinrconn/internal/workload"
)

func uniformInstance(t testing.TB, seed int64, n int) *sinr.Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pts := workload.UniformDensity(rng, n, 0.15)
	return sinr.MustInstance(pts, sinr.DefaultParams())
}

// checkBiTree runs the full validator battery of Theorem 2 on an Init
// result.
func checkBiTree(t *testing.T, in *sinr.Instance, res *InitResult) {
	t.Helper()
	bt := res.Tree
	if err := bt.Validate(); err != nil {
		t.Fatalf("tree invalid: %v", err)
	}
	if err := bt.ValidateOrdering(); err != nil {
		t.Fatalf("ordering invalid: %v", err)
	}
	if !bt.StronglyConnected() {
		t.Fatal("tree not strongly connected")
	}
	if err := bt.ValidatePerSlotFeasible(in); err != nil {
		t.Fatalf("schedule infeasible: %v", err)
	}
	if _, err := bt.AggregationLatency(); err != nil {
		t.Fatalf("aggregation replay: %v", err)
	}
	if _, err := bt.BroadcastLatency(); err != nil {
		t.Fatalf("broadcast replay: %v", err)
	}
}

func TestInitSmallLine(t *testing.T) {
	in := sinr.MustInstance(workload.ExponentialChain(8, 2), sinr.DefaultParams())
	res, err := Init(context.Background(), in, InitConfig{Channel: sim.Config{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tree.Up) != 7 {
		t.Fatalf("links = %d, want 7", len(res.Tree.Up))
	}
	checkBiTree(t, in, res)
	if res.SlotsUsed <= 0 {
		t.Error("SlotsUsed not recorded")
	}
}

func TestInitUniform(t *testing.T) {
	in := uniformInstance(t, 2, 64)
	res, err := Init(context.Background(), in, InitConfig{Channel: sim.Config{Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	checkBiTree(t, in, res)
	if got := len(res.Tree.Up); got != 63 {
		t.Fatalf("links = %d, want 63", got)
	}
}

func TestInitSingleParticipant(t *testing.T) {
	in := uniformInstance(t, 3, 10)
	res, err := Init(context.Background(), in, InitConfig{Channel: sim.Config{Seed: 1}, Participants: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tree.Root != 4 || len(res.Tree.Up) != 0 {
		t.Errorf("single-participant tree: root %d, %d links", res.Tree.Root, len(res.Tree.Up))
	}
}

func TestInitSubsetParticipants(t *testing.T) {
	in := uniformInstance(t, 4, 40)
	parts := []int{0, 3, 7, 11, 18, 25, 31, 39}
	res, err := Init(context.Background(), in, InitConfig{Channel: sim.Config{Seed: 5}, Participants: parts})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tree.Nodes) != len(parts) {
		t.Fatalf("spans %d nodes, want %d", len(res.Tree.Nodes), len(parts))
	}
	checkBiTree(t, in, res)
	// Non-participants must not appear in any link.
	inSet := map[int]bool{}
	for _, v := range parts {
		inSet[v] = true
	}
	for _, tl := range res.Tree.Up {
		if !inSet[tl.L.From] || !inSet[tl.L.To] {
			t.Fatalf("link %v involves non-participant", tl.L)
		}
	}
}

func TestInitDeterministic(t *testing.T) {
	in := uniformInstance(t, 5, 48)
	a, err := Init(context.Background(), in, InitConfig{Channel: sim.Config{Seed: 11}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Init(context.Background(), in, InitConfig{Channel: sim.Config{Seed: 11}})
	if err != nil {
		t.Fatal(err)
	}
	if a.Tree.Root != b.Tree.Root || len(a.Tree.Up) != len(b.Tree.Up) ||
		a.SlotsUsed != b.SlotsUsed {
		t.Fatal("Init not deterministic for fixed seed")
	}
	for i := range a.Tree.Up {
		if a.Tree.Up[i] != b.Tree.Up[i] {
			t.Fatalf("link %d differs", i)
		}
	}
	c, err := Init(context.Background(), in, InitConfig{Channel: sim.Config{Seed: 12}})
	if err != nil {
		t.Fatal(err)
	}
	// Different seed should (overwhelmingly) give a different tree.
	same := a.Tree.Root == c.Tree.Root && len(a.Tree.Up) == len(c.Tree.Up)
	if same {
		for i := range a.Tree.Up {
			if a.Tree.Up[i] != c.Tree.Up[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Log("warning: different seeds produced identical trees (possible but unlikely)")
	}
}

func TestInitWithDropInjection(t *testing.T) {
	in := uniformInstance(t, 6, 32)
	res, err := Init(context.Background(), in, InitConfig{Channel: sim.Config{Seed: 3, DropProb: 0.3}})
	if err != nil {
		t.Fatal(err)
	}
	checkBiTree(t, in, res)
}

// TestInitHonorsForbidden pins Forbidden in Init as in Join: rerunning a
// construction with one of its links forbidden must build a tree without
// it, which the churn driver's rebuild rung relies on after a link shower.
func TestInitHonorsForbidden(t *testing.T) {
	in := uniformInstance(t, 2, 64)
	for seed := int64(1); seed <= 3; seed++ {
		base, err := Init(context.Background(), in, InitConfig{Channel: sim.Config{Seed: seed}})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{0, len(base.Tree.Up) / 2, len(base.Tree.Up) - 1} {
			bad := base.Tree.Up[k].L
			res, err := Init(context.Background(), in, InitConfig{Channel: sim.Config{Seed: seed}, Forbidden: []sinr.Link{bad}})
			if err != nil {
				t.Fatalf("seed %d, %v forbidden: %v", seed, bad, err)
			}
			checkBiTree(t, in, res)
			for _, tl := range res.Tree.Up {
				if tl.L == bad {
					t.Errorf("seed %d: forbidden link %v formed again", seed, bad)
				}
			}
		}
	}
}

func TestInitErrors(t *testing.T) {
	in := uniformInstance(t, 8, 8)
	if _, err := Init(context.Background(), in, InitConfig{Participants: []int{}}); err == nil {
		t.Error("empty participants accepted")
	}
	if _, err := Init(context.Background(), in, InitConfig{Participants: []int{99}}); err == nil {
		t.Error("out-of-range participant accepted")
	}
	if _, err := Init(context.Background(), in, InitConfig{Participants: []int{1, 1}}); err == nil {
		t.Error("duplicate participant accepted")
	}
	if _, err := Init(context.Background(), in, InitConfig{Channel: sim.Config{DropProb: 2}}); err == nil {
		t.Error("bad drop probability accepted")
	}
	if _, err := Init(context.Background(), in, InitConfig{Channel: sim.Config{DropProb: math.NaN()}}); err == nil {
		t.Error("NaN drop probability accepted")
	}
	if _, err := Init(context.Background(), in, InitConfig{BroadcastProb: math.NaN()}); err == nil {
		t.Error("NaN broadcast probability accepted")
	}
}

func TestInitDegreeBound(t *testing.T) {
	// Theorem 7: max degree O(log n) w.h.p. Use a generous constant.
	in := uniformInstance(t, 9, 128)
	res, err := Init(context.Background(), in, InitConfig{Channel: sim.Config{Seed: 13}})
	if err != nil {
		t.Fatal(err)
	}
	maxDeg := res.Tree.MaxDegree()
	bound := int(8 * math.Log2(128))
	if maxDeg > bound {
		t.Errorf("max degree %d exceeds %d", maxDeg, bound)
	}
}

func TestInitSlotsScaleWithLadder(t *testing.T) {
	// A high-Δ chain must use more slots than a compact grid of the same
	// size (the log Δ factor of Theorem 2).
	chain := sinr.MustInstance(workload.ChainForDelta(32, 1<<16), sinr.DefaultParams())
	grid := sinr.MustInstance(workload.GridPoints(6, 6, 2)[:32], sinr.DefaultParams())
	resChain, err := Init(context.Background(), chain, InitConfig{Channel: sim.Config{Seed: 21}})
	if err != nil {
		t.Fatal(err)
	}
	resGrid, err := Init(context.Background(), grid, InitConfig{Channel: sim.Config{Seed: 21}})
	if err != nil {
		t.Fatal(err)
	}
	if resChain.LadderRounds <= resGrid.LadderRounds {
		t.Fatalf("ladder rounds: chain %d vs grid %d", resChain.LadderRounds, resGrid.LadderRounds)
	}
	if resChain.SlotsUsed <= resGrid.SlotsUsed {
		t.Errorf("slots: chain %d vs grid %d — expected chain to pay the log Δ factor",
			resChain.SlotsUsed, resGrid.SlotsUsed)
	}
}

func TestInitStrayCleanup(t *testing.T) {
	// Strays can occur but must never corrupt the tree; the count is
	// reported. Run several seeds and just assert validity every time.
	in := uniformInstance(t, 10, 48)
	for seed := int64(0); seed < 5; seed++ {
		res, err := Init(context.Background(), in, InitConfig{Channel: sim.Config{Seed: seed}})
		if err != nil {
			t.Fatal(err)
		}
		checkBiTree(t, in, res)
		if res.StrayLinks < 0 {
			t.Fatal("negative stray count")
		}
	}
}
