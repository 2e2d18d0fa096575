package core

import (
	"context"
	"math/rand"
	"testing"

	"sinrconn/internal/geom"
	"sinrconn/internal/sim"
	"sinrconn/internal/sinr"
	"sinrconn/internal/workload"
)

// splitInstance builds a uniform instance and returns it along with a
// bi-tree over the first (n - k) nodes, leaving the last k as joiners.
func splitInstance(t *testing.T, seed int64, n, k int) (*sinr.Instance, *InitResult, []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pts := workload.UniformDensity(rng, n, 0.15)
	in := sinr.MustInstance(pts, sinr.DefaultParams())
	base := make([]int, 0, n-k)
	joiners := make([]int, 0, k)
	for i := 0; i < n; i++ {
		if i < n-k {
			base = append(base, i)
		} else {
			joiners = append(joiners, i)
		}
	}
	res, err := Init(context.Background(), in, InitConfig{Channel: sim.Config{Seed: seed}, Participants: base})
	if err != nil {
		t.Fatal(err)
	}
	return in, res, joiners
}

func checkFullBiTree(t *testing.T, in *sinr.Instance, bt interface {
	Validate() error
	ValidateOrdering() error
	StronglyConnected() bool
	ValidatePerSlotFeasible(*sinr.Instance) error
}) {
	t.Helper()
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
}

func TestJoinAttachesAll(t *testing.T) {
	in, res, joiners := splitInstance(t, 60, 48, 8)
	jres, err := Join(context.Background(), in, res.Tree, joiners, InitConfig{Channel: sim.Config{Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if jres.Attached != 8 {
		t.Fatalf("attached %d of 8", jres.Attached)
	}
	if len(jres.Tree.Nodes) != 48 {
		t.Fatalf("merged tree spans %d nodes", len(jres.Tree.Nodes))
	}
	checkFullBiTree(t, in, jres.Tree)
	if _, err := jres.Tree.AggregationLatency(); err != nil {
		t.Fatalf("aggregation replay: %v", err)
	}
	if jres.SlotsUsed <= 0 || jres.Rounds <= 0 {
		t.Errorf("metrics: %+v", jres)
	}
}

func TestJoinEmpty(t *testing.T) {
	in, res, _ := splitInstance(t, 61, 24, 4)
	jres, err := Join(context.Background(), in, res.Tree, nil, InitConfig{Channel: sim.Config{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if jres.Attached != 0 || len(jres.Tree.Up) != len(res.Tree.Up) {
		t.Errorf("empty join changed the tree: %+v", jres)
	}
}

func TestJoinValidation(t *testing.T) {
	in, res, _ := splitInstance(t, 62, 16, 4)
	if _, err := Join(context.Background(), in, res.Tree, []int{999}, InitConfig{}); err == nil {
		t.Error("out-of-range joiner accepted")
	}
	if _, err := Join(context.Background(), in, res.Tree, []int{res.Tree.Root}, InitConfig{}); err == nil {
		t.Error("member joiner accepted")
	}
	if _, err := Join(context.Background(), in, res.Tree, []int{14, 14}, InitConfig{}); err == nil {
		t.Error("duplicate joiner accepted")
	}
}

func TestJoinChained(t *testing.T) {
	// Joiners far from the tree but close to each other must attach in a
	// chain (joiner-under-joiner), which exercises the decreasing-stamp
	// ordering argument.
	var pts []geom.Point
	pts = append(pts, workload.GridPoints(3, 3, 2)...) // tree cluster, nodes 0-8
	base := []int{0, 1, 2, 3, 4, 5, 6, 7, 8}
	// Chain of joiners leading away.
	for i := 1; i <= 4; i++ {
		pts = append(pts, geom.Point{X: 4 + float64(i)*3, Y: 2})
	}
	in := sinr.MustInstance(pts, sinr.DefaultParams())
	res, err := Init(context.Background(), in, InitConfig{Channel: sim.Config{Seed: 3}, Participants: base})
	if err != nil {
		t.Fatal(err)
	}
	jres, err := Join(context.Background(), in, res.Tree, []int{9, 10, 11, 12}, InitConfig{Channel: sim.Config{Seed: 4}})
	if err != nil {
		t.Fatal(err)
	}
	checkFullBiTree(t, in, jres.Tree)
	if _, err := jres.Tree.AggregationLatency(); err != nil {
		t.Fatalf("aggregation replay after chained join: %v", err)
	}
}

func TestJoinDeterministic(t *testing.T) {
	in, res, joiners := splitInstance(t, 63, 32, 6)
	a, err := Join(context.Background(), in, res.Tree, joiners, InitConfig{Channel: sim.Config{Seed: 9}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Join(context.Background(), in, res.Tree, joiners, InitConfig{Channel: sim.Config{Seed: 9}})
	if err != nil {
		t.Fatal(err)
	}
	if a.SlotsUsed != b.SlotsUsed || len(a.Tree.Up) != len(b.Tree.Up) {
		t.Fatal("join not deterministic")
	}
}

func TestRepairInteriorFailure(t *testing.T) {
	in, res, _ := splitInstance(t, 64, 48, 0)
	bt := res.Tree
	// Fail a non-root node with children (an interior node).
	children := bt.Children()
	victim := -1
	for v, ch := range children {
		if v != bt.Root && len(ch) > 0 {
			victim = v
			break
		}
	}
	if victim < 0 {
		t.Skip("no interior node in this tree")
	}
	rres, err := Repair(context.Background(), in, bt, []int{victim}, InitConfig{Channel: sim.Config{Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if rres.NewRoot != bt.Root {
		t.Errorf("root changed: %d", rres.NewRoot)
	}
	if len(rres.Tree.Nodes) != 47 {
		t.Errorf("repaired tree spans %d nodes", len(rres.Tree.Nodes))
	}
	if rres.OrphanRoots < 1 {
		t.Errorf("orphan roots = %d", rres.OrphanRoots)
	}
	checkFullBiTree(t, in, rres.Tree)
	if _, err := rres.Tree.AggregationLatency(); err != nil {
		t.Fatalf("aggregation replay after repair: %v", err)
	}
}

func TestRepairRootFailure(t *testing.T) {
	in, res, _ := splitInstance(t, 65, 40, 0)
	bt := res.Tree
	rres, err := Repair(context.Background(), in, bt, []int{bt.Root}, InitConfig{Channel: sim.Config{Seed: 6}})
	if err != nil {
		t.Fatal(err)
	}
	if rres.NewRoot == bt.Root {
		t.Error("failed root still root")
	}
	if len(rres.Tree.Nodes) != 39 {
		t.Errorf("repaired tree spans %d nodes", len(rres.Tree.Nodes))
	}
	checkFullBiTree(t, in, rres.Tree)
}

func TestRepairLeafFailure(t *testing.T) {
	// Failing a leaf orphans nobody: repair is pure surgery plus restamp.
	in, res, _ := splitInstance(t, 66, 32, 0)
	bt := res.Tree
	children := bt.Children()
	leaf := -1
	for _, v := range bt.Nodes {
		if v != bt.Root && len(children[v]) == 0 {
			leaf = v
			break
		}
	}
	if leaf < 0 {
		t.Fatal("no leaf found")
	}
	rres, err := Repair(context.Background(), in, bt, []int{leaf}, InitConfig{Channel: sim.Config{Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if rres.OrphanRoots != 0 || rres.SlotsUsed != 0 {
		t.Errorf("leaf failure should need no channel time: %+v", rres)
	}
	checkFullBiTree(t, in, rres.Tree)
}

func TestRepairMultipleFailures(t *testing.T) {
	in, res, _ := splitInstance(t, 67, 48, 0)
	bt := res.Tree
	// Fail three random non-root nodes.
	rng := rand.New(rand.NewSource(1))
	var failed []int
	seen := map[int]bool{bt.Root: true}
	for len(failed) < 3 {
		v := bt.Nodes[rng.Intn(len(bt.Nodes))]
		if !seen[v] {
			seen[v] = true
			failed = append(failed, v)
		}
	}
	rres, err := Repair(context.Background(), in, bt, failed, InitConfig{Channel: sim.Config{Seed: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rres.Tree.Nodes) != 45 {
		t.Errorf("repaired tree spans %d nodes", len(rres.Tree.Nodes))
	}
	checkFullBiTree(t, in, rres.Tree)
}

func TestRepairValidation(t *testing.T) {
	in, res, _ := splitInstance(t, 68, 16, 0)
	if _, err := Repair(context.Background(), in, res.Tree, []int{999}, InitConfig{}); err == nil {
		t.Error("unknown failed node accepted")
	}
	all := append([]int(nil), res.Tree.Nodes...)
	if _, err := Repair(context.Background(), in, res.Tree, all, InitConfig{}); err == nil {
		t.Error("total failure accepted")
	}
}

func TestRepairDuplicateFailedTolerated(t *testing.T) {
	// Churn traces compose bursts with single failures, so the same node is
	// routinely reported dead twice; repair must treat {v, v} as {v}.
	victim := -1
	in, res, _ := splitInstance(t, 68, 16, 0)
	for _, v := range res.Tree.Nodes {
		if v != res.Tree.Root {
			victim = v
			break
		}
	}
	dup, err := Repair(context.Background(), in, res.Tree, []int{victim, victim}, InitConfig{Channel: sim.Config{Seed: 9}})
	if err != nil {
		t.Fatalf("duplicate failed node rejected: %v", err)
	}
	single, err := Repair(context.Background(), in, res.Tree, []int{victim}, InitConfig{Channel: sim.Config{Seed: 9}})
	if err != nil {
		t.Fatal(err)
	}
	if len(dup.Tree.Nodes) != len(single.Tree.Nodes) || dup.OrphanRoots != single.OrphanRoots {
		t.Fatalf("duplicate-failed repair diverged: %d nodes / %d orphans vs %d / %d",
			len(dup.Tree.Nodes), dup.OrphanRoots, len(single.Tree.Nodes), single.OrphanRoots)
	}
	checkFullBiTree(t, in, dup.Tree)
}

func TestRestampProducesValidSchedule(t *testing.T) {
	// Scramble the stamps of a valid tree, then Restamp must restore
	// ordering and feasibility.
	in, res, _ := splitInstance(t, 69, 40, 0)
	bt := res.Tree
	rng := rand.New(rand.NewSource(2))
	for i := range bt.Up {
		bt.Up[i].Slot = rng.Intn(5)
	}
	k, err := bt.Restamp(in)
	if err != nil {
		t.Fatal(err)
	}
	if k < 1 || k > len(bt.Up) {
		t.Errorf("restamped length = %d", k)
	}
	checkFullBiTree(t, in, bt)
	if _, err := bt.AggregationLatency(); err != nil {
		t.Fatalf("aggregation replay after restamp: %v", err)
	}
}

func TestRestampShorterThanSerial(t *testing.T) {
	// Restamp should exploit spatial reuse: on a spread-out instance the
	// schedule must be shorter than one-slot-per-link.
	in, res, _ := splitInstance(t, 70, 64, 0)
	bt := res.Tree
	k, err := bt.Restamp(in)
	if err != nil {
		t.Fatal(err)
	}
	if k >= len(bt.Up) {
		t.Errorf("restamp found no spatial reuse: %d slots for %d links", k, len(bt.Up))
	}
}

func TestRepairLinksReattaches(t *testing.T) {
	in, res, _ := splitInstance(t, 71, 40, 0)
	bt := res.Tree
	// Fail the out-link of a node with a subtree.
	children := bt.Children()
	var failed sinr.Link
	found := false
	for _, tl := range bt.Up {
		if len(children[tl.L.From]) > 0 {
			failed = tl.L
			found = true
			break
		}
	}
	if !found {
		t.Skip("no interior out-link")
	}
	rres, err := RepairLinks(context.Background(), in, bt, []sinr.Link{failed}, InitConfig{Channel: sim.Config{Seed: 6}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rres.Tree.Nodes) != 40 {
		t.Fatalf("repaired tree spans %d nodes", len(rres.Tree.Nodes))
	}
	if rres.OrphanRoots != 1 {
		t.Errorf("orphan roots = %d", rres.OrphanRoots)
	}
	checkFullBiTree(t, in, rres.Tree)
	// The failed link must not be in the repaired tree.
	for _, tl := range rres.Tree.Up {
		if tl.L == failed {
			t.Fatal("permanently failed link re-formed")
		}
	}
	if _, err := rres.Tree.AggregationLatency(); err != nil {
		t.Fatalf("aggregation replay: %v", err)
	}
}

func TestRepairLinksMultiple(t *testing.T) {
	in, res, _ := splitInstance(t, 72, 48, 0)
	bt := res.Tree
	var failed []sinr.Link
	for _, tl := range bt.Up {
		failed = append(failed, tl.L)
		if len(failed) == 3 {
			break
		}
	}
	rres, err := RepairLinks(context.Background(), in, bt, failed, InitConfig{Channel: sim.Config{Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	checkFullBiTree(t, in, rres.Tree)
	inRepaired := map[sinr.Link]bool{}
	for _, tl := range rres.Tree.Up {
		inRepaired[tl.L] = true
	}
	for _, l := range failed {
		if inRepaired[l] {
			t.Fatalf("failed link %v re-formed", l)
		}
	}
}

func TestRepairLinksValidation(t *testing.T) {
	in, res, _ := splitInstance(t, 73, 16, 0)
	if _, err := RepairLinks(context.Background(), in, res.Tree, []sinr.Link{{From: 98, To: 99}}, InitConfig{}); err == nil {
		t.Error("unknown link accepted")
	}
	// Duplicate failed links are tolerated ({l, l} ≡ {l}): link showers
	// under churn routinely report the same link down twice.
	l := res.Tree.Up[0].L
	if _, err := RepairLinks(context.Background(), in, res.Tree, []sinr.Link{l, l}, InitConfig{Channel: sim.Config{Seed: 11}}); err != nil {
		t.Errorf("duplicate failed link rejected: %v", err)
	}
	// Empty failure set: pure restamp, no channel time.
	rres, err := RepairLinks(context.Background(), in, res.Tree, nil, InitConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rres.SlotsUsed != 0 || rres.OrphanRoots != 0 {
		t.Errorf("empty link repair: %+v", rres)
	}
}
