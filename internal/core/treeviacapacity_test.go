package core

import (
	"context"
	"math"
	"testing"

	"sinrconn/internal/sim"
	"sinrconn/internal/sinr"
	"sinrconn/internal/workload"
)

func checkTVC(t *testing.T, in *sinr.Instance, res *TVCResult) {
	t.Helper()
	bt := res.Tree
	if err := bt.Validate(); err != nil {
		t.Fatalf("tree invalid: %v", err)
	}
	if err := bt.ValidateOrdering(); err != nil {
		t.Fatalf("ordering invalid: %v", err)
	}
	if !bt.StronglyConnected() {
		t.Fatal("not strongly connected")
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

func TestTVCArbitrary(t *testing.T) {
	in := uniformInstance(t, 40, 64)
	res, err := TreeViaCapacity(context.Background(), in, TVCConfig{Variant: VariantArbitrary, Init: InitConfig{Channel: sim.Config{Seed: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	checkTVC(t, in, res)
	if len(res.Tree.Up) != 63 {
		t.Fatalf("links = %d, want 63", len(res.Tree.Up))
	}
	if res.Iterations < 1 {
		t.Error("no iterations recorded")
	}
	// Theorem 4a shape: schedule length should be modest relative to
	// iterations (each iteration is one slot) and far below n.
	if got := res.Tree.NumSlots(); got > res.Iterations || got >= 63 {
		t.Errorf("schedule slots = %d (iterations %d)", got, res.Iterations)
	}
}

func TestTVCMean(t *testing.T) {
	in := uniformInstance(t, 41, 64)
	res, err := TreeViaCapacity(context.Background(), in, TVCConfig{Variant: VariantMean, Init: InitConfig{Channel: sim.Config{Seed: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	checkTVC(t, in, res)
	if len(res.Tree.Up) != 63 {
		t.Fatalf("links = %d, want 63", len(res.Tree.Up))
	}
}

func TestTVCDefaultVariantIsArbitrary(t *testing.T) {
	in := uniformInstance(t, 42, 24)
	res, err := TreeViaCapacity(context.Background(), in, TVCConfig{Init: InitConfig{Channel: sim.Config{Seed: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	checkTVC(t, in, res)
}

func TestTVCSingleNode(t *testing.T) {
	in := sinr.MustInstance(workload.GridPoints(1, 1, 1), sinr.DefaultParams())
	res, err := TreeViaCapacity(context.Background(), in, TVCConfig{Init: InitConfig{Channel: sim.Config{Seed: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tree.Root != 0 || len(res.Tree.Up) != 0 || res.Iterations != 0 {
		t.Errorf("single node result: %+v", res)
	}
}

func TestTVCChainInstance(t *testing.T) {
	in := sinr.MustInstance(workload.ChainForDelta(24, 1<<12), sinr.DefaultParams())
	res, err := TreeViaCapacity(context.Background(), in, TVCConfig{Variant: VariantArbitrary, Init: InitConfig{Channel: sim.Config{Seed: 5}}})
	if err != nil {
		t.Fatal(err)
	}
	checkTVC(t, in, res)
}

func TestTVCIterationsLogarithmic(t *testing.T) {
	// Theorem 12 shape: iterations should grow like log n, not n. Compare
	// against a very generous c·log₂n bound.
	in := uniformInstance(t, 43, 128)
	res, err := TreeViaCapacity(context.Background(), in, TVCConfig{Variant: VariantArbitrary, Init: InitConfig{Channel: sim.Config{Seed: 7}}})
	if err != nil {
		t.Fatal(err)
	}
	bound := int(12 * math.Log2(128))
	if res.Iterations > bound {
		t.Errorf("iterations %d exceed %d", res.Iterations, bound)
	}
}

func TestTVCSelectionFractionsRecorded(t *testing.T) {
	in := uniformInstance(t, 44, 48)
	res, err := TreeViaCapacity(context.Background(), in, TVCConfig{Variant: VariantMean, Init: InitConfig{Channel: sim.Config{Seed: 9}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SelectionFractions) != res.Iterations {
		t.Errorf("%d fractions for %d iterations",
			len(res.SelectionFractions), res.Iterations)
	}
	for _, f := range res.SelectionFractions {
		if f < 0 || f > 1.01 {
			t.Errorf("fraction %v out of range", f)
		}
	}
}

func TestTVCEmptyInstance(t *testing.T) {
	in := sinr.MustInstance(nil, sinr.DefaultParams())
	if _, err := TreeViaCapacity(context.Background(), in, TVCConfig{}); err == nil {
		t.Error("empty instance accepted")
	}
}

func TestTVCDeterministic(t *testing.T) {
	in := uniformInstance(t, 45, 32)
	a, err := TreeViaCapacity(context.Background(), in, TVCConfig{Variant: VariantArbitrary, Init: InitConfig{Channel: sim.Config{Seed: 21}}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := TreeViaCapacity(context.Background(), in, TVCConfig{Variant: VariantArbitrary, Init: InitConfig{Channel: sim.Config{Seed: 21}}})
	if err != nil {
		t.Fatal(err)
	}
	if a.Iterations != b.Iterations || len(a.Tree.Up) != len(b.Tree.Up) ||
		a.Tree.Root != b.Tree.Root {
		t.Fatal("TreeViaCapacity not deterministic")
	}
}

func TestTVCPowerIterationsAccounted(t *testing.T) {
	in := uniformInstance(t, 46, 48)
	res, err := TreeViaCapacity(context.Background(), in, TVCConfig{Variant: VariantArbitrary, Init: InitConfig{Channel: sim.Config{Seed: 23}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.PowerSolveIterations <= 0 {
		t.Error("power solve iterations not accounted")
	}
}
