package sinrconn

import (
	"testing"
)

func TestJoinPoints(t *testing.T) {
	pts := uniformPoints(20, 40)
	res := build(t, pts, PipelineInit, WithSeed(1))
	// New nodes well away from the cluster.
	newPts := []Point{{X: 200, Y: 0}, {X: 203, Y: 2}, {X: 206, Y: 0}}
	joined, err := res.Network().Join(bg, res, newPts, WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if joined.Tree.NumNodes != 43 {
		t.Fatalf("joined tree spans %d nodes", joined.Tree.NumNodes)
	}
	if err := joined.Tree.Verify(); err != nil {
		t.Fatal(err)
	}
	// The original result is untouched.
	if res.Tree.NumNodes != 40 {
		t.Error("original result mutated")
	}
	// New nodes are indexed after the old ones and are in the parent map.
	par := joined.Tree.Parent()
	for i := 40; i < 43; i++ {
		if _, ok := par[i]; !ok && i != joined.Tree.Root {
			t.Errorf("joined node %d has no parent", i)
		}
	}
}

func TestJoinPointsValidation(t *testing.T) {
	pts := uniformPoints(21, 16)
	res := build(t, pts, PipelineInit, WithSeed(1))
	if _, err := res.Network().Join(bg, res, nil); err == nil {
		t.Error("empty join accepted")
	}
	// A point on top of an existing node breaks the normalization.
	if _, err := res.Network().Join(bg, res, []Point{pts[0]}); err == nil {
		t.Error("overlapping join point accepted")
	}
}

func TestRepairFailures(t *testing.T) {
	pts := uniformPoints(22, 48)
	res := build(t, pts, PipelineInit, WithSeed(3))
	victim := -1
	par := res.Tree.Parent()
	// Fail some node that is a parent (interior).
	counts := map[int]int{}
	for _, p := range par {
		counts[p]++
	}
	for v, c := range counts {
		if v != res.Tree.Root && c > 0 {
			victim = v
			break
		}
	}
	if victim < 0 {
		t.Skip("no interior node")
	}
	repaired, err := res.Network().Repair(bg, res, []int{victim}, WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	if repaired.Tree.NumNodes != 47 {
		t.Fatalf("repaired tree spans %d nodes", repaired.Tree.NumNodes)
	}
	if err := repaired.Tree.Verify(); err != nil {
		t.Fatal(err)
	}
	if repaired.Metrics.AggregationLatency <= 0 {
		t.Error("latency not filled after repair")
	}
}

func TestRepairRootViaFacade(t *testing.T) {
	pts := uniformPoints(23, 32)
	res := build(t, pts, PipelineInit, WithSeed(5))
	repaired, err := res.Network().Repair(bg, res, []int{res.Tree.Root}, WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	if repaired.Tree.Root == res.Tree.Root {
		t.Error("failed root still root")
	}
	if err := repaired.Tree.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestRepairFailuresValidation(t *testing.T) {
	pts := uniformPoints(24, 16)
	res := build(t, pts, PipelineInit, WithSeed(1))
	if _, err := res.Network().Repair(bg, res, nil); err == nil {
		t.Error("empty failure set accepted")
	}
	if _, err := res.Network().Repair(bg, res, []int{999}); err == nil {
		t.Error("unknown node accepted")
	}
}

func TestJoinThenRepairLifecycle(t *testing.T) {
	// Full lifecycle: build → join → fail the joined nodes → repair.
	pts := uniformPoints(25, 24)
	res := build(t, pts, PipelineInit, WithSeed(7))
	joined, err := res.Network().Join(bg, res, []Point{{X: 150, Y: 0}, {X: 152, Y: 1}}, WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	repaired, err := joined.Network().Repair(bg, joined, []int{24, 25}, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if repaired.Tree.NumNodes != 24 {
		t.Fatalf("lifecycle end state: %d nodes", repaired.Tree.NumNodes)
	}
	if err := repaired.Tree.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestRepairLinkFailures(t *testing.T) {
	pts := uniformPoints(26, 40)
	res := build(t, pts, PipelineInit, WithSeed(10))
	// Fail the first two links.
	var failed []Link
	for _, l := range res.Tree.Up[:2] {
		failed = append(failed, l.Link)
	}
	repaired, err := res.Network().RepairLinks(bg, res, failed, WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	if repaired.Tree.NumNodes != 40 {
		t.Fatalf("repaired tree spans %d nodes", repaired.Tree.NumNodes)
	}
	if err := repaired.Tree.Verify(); err != nil {
		t.Fatal(err)
	}
	have := map[Link]bool{}
	for _, l := range repaired.Tree.Up {
		have[l.Link] = true
	}
	for _, l := range failed {
		if have[l] {
			t.Fatalf("failed link %v re-formed", l)
		}
	}
	if _, err := res.Network().RepairLinks(bg, res, nil); err == nil {
		t.Error("empty link set accepted")
	}
}
