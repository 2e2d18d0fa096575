package core

import (
	"context"
	"math/rand"
	"testing"

	"sinrconn/internal/sim"
	"sinrconn/internal/tree"
)

func sumFold(a, b int64) int64 { return a + b }

func maxFold(a, b int64) int64 { return max(a, b) }

func TestRunAggregationOnInitTree(t *testing.T) {
	in := uniformInstance(t, 80, 48)
	res, err := Init(context.Background(), in, InitConfig{Channel: sim.Config{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	values := make([]int64, in.Len())
	var wantSum int64
	rng := rand.New(rand.NewSource(7))
	for i := range values {
		values[i] = int64(rng.Intn(1000))
		wantSum += values[i]
	}
	out, err := RunAggregation(context.Background(), in, res.Tree, values, sumFold, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Value != wantSum {
		t.Fatalf("sum aggregate = %d, want %d", out.Value, wantSum)
	}
	if out.SlotsUsed != res.Tree.NumSlots()+1 {
		t.Errorf("slots = %d, schedule = %d", out.SlotsUsed, res.Tree.NumSlots())
	}
	if out.Energy <= 0 || out.Deliveries != len(res.Tree.Up) {
		t.Errorf("outcome: %+v", out)
	}
}

func TestRunAggregationMaxOnTVCTree(t *testing.T) {
	in := uniformInstance(t, 81, 40)
	res, err := TreeViaCapacity(context.Background(), in, TVCConfig{Variant: VariantArbitrary, Init: InitConfig{Channel: sim.Config{Seed: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	values := make([]int64, in.Len())
	for i := range values {
		values[i] = int64(i * 13 % 97)
	}
	out, err := RunAggregation(context.Background(), in, res.Tree, values, maxFold, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, v := range values {
		if v > want {
			want = v
		}
	}
	if out.Value != want {
		t.Fatalf("max aggregate = %d, want %d", out.Value, want)
	}
}

func TestRunAggregationMeanVariant(t *testing.T) {
	in := uniformInstance(t, 82, 32)
	res, err := TreeViaCapacity(context.Background(), in, TVCConfig{Variant: VariantMean, Init: InitConfig{Channel: sim.Config{Seed: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	values := make([]int64, in.Len())
	for i := range values {
		values[i] = 1
	}
	out, err := RunAggregation(context.Background(), in, res.Tree, values, sumFold, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Count aggregate: root must have counted every node.
	if out.Value != int64(in.Len()) {
		t.Fatalf("count = %d, want %d", out.Value, in.Len())
	}
}

func TestRunAggregationDetectsBadSchedule(t *testing.T) {
	// Sabotage: give two conflicting links the same slot with weak powers —
	// the physical run must detect the loss.
	in := uniformInstance(t, 83, 24)
	res, err := Init(context.Background(), in, InitConfig{Channel: sim.Config{Seed: 4}})
	if err != nil {
		t.Fatal(err)
	}
	bt := res.Tree
	// Force the whole tree into a single slot: concurrent transmissions
	// will collide somewhere for n = 24 links.
	bad := &tree.BiTree{Root: bt.Root, Nodes: bt.Nodes, Up: append([]tree.TimedLink(nil), bt.Up...)}
	for i := range bad.Up {
		bad.Up[i].Slot = 1
	}
	values := make([]int64, in.Len())
	for i := range values {
		values[i] = 1
	}
	if _, err := RunAggregation(context.Background(), in, bad, values, sumFold, sim.Config{}); err == nil {
		t.Fatal("single-slot sabotage not detected by the physical run")
	}
}

func TestRunAggregationValidation(t *testing.T) {
	in := uniformInstance(t, 84, 8)
	res, err := Init(context.Background(), in, InitConfig{Channel: sim.Config{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunAggregation(context.Background(), in, res.Tree, nil, sumFold, sim.Config{}); err == nil {
		t.Error("short values accepted")
	}
	vals := make([]int64, in.Len())
	if _, err := RunAggregation(context.Background(), in, res.Tree, vals, nil, sim.Config{}); err == nil {
		t.Error("nil fold accepted")
	}
}

func TestRunAggregationAfterRepair(t *testing.T) {
	// The repaired (restamped) schedule must also execute correctly on the
	// physics.
	in, res, _ := splitInstance(t, 85, 40, 0)
	bt := res.Tree
	children := bt.Children()
	victim := -1
	for v, ch := range children {
		if v != bt.Root && len(ch) > 0 {
			victim = v
			break
		}
	}
	if victim < 0 {
		t.Skip("no interior node")
	}
	rres, err := Repair(context.Background(), in, bt, []int{victim}, InitConfig{Channel: sim.Config{Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	values := make([]int64, in.Len())
	var want int64
	for _, v := range rres.Tree.Nodes {
		values[v] = int64(v)
		want += int64(v)
	}
	out, err := RunAggregation(context.Background(), in, rres.Tree, values, sumFold, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Value != want {
		t.Fatalf("post-repair aggregate = %d, want %d", out.Value, want)
	}
}

func TestRunPairMessage(t *testing.T) {
	in := uniformInstance(t, 91, 40)
	res, err := TreeViaCapacity(context.Background(), in, TVCConfig{Variant: VariantArbitrary, Init: InitConfig{Channel: sim.Config{Seed: 6}}})
	if err != nil {
		t.Fatal(err)
	}
	// Several random pairs, including degenerate ones.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		src, dst := rng.Intn(40), rng.Intn(40)
		out, err := RunPairMessage(context.Background(), in, res.Tree, src, dst, int64(100+trial), sim.Config{})
		if err != nil {
			t.Fatalf("pair %d→%d: %v", src, dst, err)
		}
		if out.Value != int64(100+trial) || out.Reached != len(res.Tree.Nodes) {
			t.Fatalf("pair %d→%d not delivered: %+v", src, dst, out)
		}
		// 2×(schedule+1) drain slots total.
		if max := 2 * (res.Tree.NumSlots() + 1); out.SlotsUsed > max {
			t.Errorf("pair latency %d exceeds %d", out.SlotsUsed, max)
		}
	}
}

func TestRunPairMessageValidation(t *testing.T) {
	in := uniformInstance(t, 92, 12)
	res, err := Init(context.Background(), in, InitConfig{Channel: sim.Config{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunPairMessage(context.Background(), in, res.Tree, 0, 999, 1, sim.Config{}); err == nil {
		t.Error("bad dst accepted")
	}
}

func TestRunBroadcastOnInitTree(t *testing.T) {
	in := uniformInstance(t, 86, 48)
	res, err := Init(context.Background(), in, InitConfig{Channel: sim.Config{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	out, err := RunBroadcast(context.Background(), in, res.Tree, 4242, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Reached != 48 {
		t.Fatalf("reached %d of 48", out.Reached)
	}
	if out.SlotsUsed != res.Tree.NumSlots()+1 {
		t.Errorf("slots = %d, schedule = %d", out.SlotsUsed, res.Tree.NumSlots())
	}
	if out.Energy <= 0 {
		t.Error("no energy recorded")
	}
}

func TestRunBroadcastOnTVCTree(t *testing.T) {
	in := uniformInstance(t, 87, 36)
	res, err := TreeViaCapacity(context.Background(), in, TVCConfig{Variant: VariantArbitrary, Init: InitConfig{Channel: sim.Config{Seed: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	out, err := RunBroadcast(context.Background(), in, res.Tree, -7, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Reached != 36 {
		t.Fatalf("reached %d of 36", out.Reached)
	}
}

func TestRunBroadcastDetectsBadSchedule(t *testing.T) {
	in := uniformInstance(t, 88, 24)
	res, err := Init(context.Background(), in, InitConfig{Channel: sim.Config{Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage the ordering: identical slots force parents to forward
	// before they have the value (and collide).
	bad := &tree.BiTree{Root: res.Tree.Root, Nodes: res.Tree.Nodes,
		Up: append([]tree.TimedLink(nil), res.Tree.Up...)}
	for i := range bad.Up {
		bad.Up[i].Slot = 1
	}
	if _, err := RunBroadcast(context.Background(), in, bad, 1, sim.Config{}); err == nil {
		t.Fatal("sabotaged broadcast schedule not detected")
	}
}

func TestRunBroadcastSingleNode(t *testing.T) {
	in := uniformInstance(t, 89, 4)
	res, err := Init(context.Background(), in, InitConfig{Channel: sim.Config{Seed: 1}, Participants: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	out, err := RunBroadcast(context.Background(), in, res.Tree, 9, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Reached != 1 {
		t.Errorf("reached = %d", out.Reached)
	}
}
