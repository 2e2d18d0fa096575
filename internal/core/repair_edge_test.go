package core

// Edge cases of the failure-recovery path the regular dynamic tests never
// hit: degenerate trees (single node, everything failed), total-leaf
// failure (the fringe of the tree dies at once), and repair of a tree that
// has no links left to keep.

import (
	"context"
	"testing"

	"sinrconn/internal/geom"
	"sinrconn/internal/sim"
	"sinrconn/internal/sinr"
	"sinrconn/internal/tree"
)

func TestRepairAllNodesFailedErrors(t *testing.T) {
	in, res, _ := splitInstance(t, 80, 12, 0)
	if _, err := Repair(context.Background(), in, res.Tree, append([]int(nil), res.Tree.Nodes...), InitConfig{Channel: sim.Config{Seed: 1}}); err == nil {
		t.Fatal("repairing a fully failed tree did not error")
	}
}

func TestRepairSingleNodeTree(t *testing.T) {
	in := sinr.MustInstance([]geom.Point{{X: 0}, {X: 2}}, sinr.DefaultParams())
	bt := &tree.BiTree{Root: 0, Nodes: []int{0}}
	// The only node fails → nothing survives.
	if _, err := Repair(context.Background(), in, bt, []int{0}, InitConfig{Channel: sim.Config{Seed: 2}}); err == nil {
		t.Fatal("single-node tree with failed root did not error")
	}
	// A node outside the tree cannot fail.
	if _, err := Repair(context.Background(), in, bt, []int{1}, InitConfig{Channel: sim.Config{Seed: 3}}); err == nil {
		t.Fatal("failing a non-member did not error")
	}
}

func TestRepairToSingleSurvivor(t *testing.T) {
	// Fail everything except the root: the repaired tree is one node, no
	// links, empty (zero-length) schedule — and valid.
	in, res, _ := splitInstance(t, 81, 10, 0)
	bt := res.Tree
	var failed []int
	for _, v := range bt.Nodes {
		if v != bt.Root {
			failed = append(failed, v)
		}
	}
	rres, err := Repair(context.Background(), in, bt, failed, InitConfig{Channel: sim.Config{Seed: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if rres.NewRoot != bt.Root {
		t.Errorf("root changed to %d", rres.NewRoot)
	}
	if len(rres.Tree.Nodes) != 1 || len(rres.Tree.Up) != 0 {
		t.Fatalf("survivor tree shape: %d nodes, %d links", len(rres.Tree.Nodes), len(rres.Tree.Up))
	}
	if rres.ScheduleLength != 0 {
		t.Errorf("schedule length %d for a single node", rres.ScheduleLength)
	}
	if rres.OrphanRoots != 0 || rres.SlotsUsed != 0 {
		t.Errorf("single-survivor repair consumed channel time: %+v", rres)
	}
	if err := rres.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRepairTotalLeafFailure(t *testing.T) {
	// Every leaf dies at once. No subtree is orphaned (leaves have no
	// children), so the repair is pure surgery plus a restamp — but the
	// fringe of the schedule collapses, which exercises Restamp against a
	// tree whose early slots all vanished.
	in, res, _ := splitInstance(t, 82, 40, 0)
	bt := res.Tree
	children := bt.Children()
	var leaves []int
	for _, v := range bt.Nodes {
		if v != bt.Root && len(children[v]) == 0 {
			leaves = append(leaves, v)
		}
	}
	if len(leaves) == 0 {
		t.Fatal("tree has no leaves")
	}
	rres, err := Repair(context.Background(), in, bt, leaves, InitConfig{Channel: sim.Config{Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if rres.OrphanRoots != 0 || rres.SlotsUsed != 0 {
		t.Errorf("total-leaf failure should orphan nobody: %+v", rres)
	}
	if got, want := len(rres.Tree.Nodes), len(bt.Nodes)-len(leaves); got != want {
		t.Fatalf("repaired tree spans %d nodes, want %d", got, want)
	}
	if len(rres.Tree.Nodes) > 1 {
		checkFullBiTree(t, in, rres.Tree)
	}
	// Repairing again after the *new* fringe fails must also work: repeat
	// until only the root remains, validating at every step.
	cur := rres.Tree
	for len(cur.Nodes) > 1 {
		ch := cur.Children()
		var fringe []int
		for _, v := range cur.Nodes {
			if v != cur.Root && len(ch[v]) == 0 {
				fringe = append(fringe, v)
			}
		}
		r2, err := Repair(context.Background(), in, cur, fringe, InitConfig{Channel: sim.Config{Seed: 6}})
		if err != nil {
			t.Fatalf("iterated fringe repair at %d nodes: %v", len(cur.Nodes), err)
		}
		cur = r2.Tree
		if len(cur.Nodes) > 1 {
			checkFullBiTree(t, in, cur)
		}
	}
	if cur.Root != bt.Root {
		t.Errorf("root drifted to %d during fringe collapse", cur.Root)
	}
}

func TestRepairLinksOnLinklessTree(t *testing.T) {
	in := sinr.MustInstance([]geom.Point{{X: 0}, {X: 2}}, sinr.DefaultParams())
	bt := &tree.BiTree{Root: 0, Nodes: []int{0}}
	// No links exist, so any claimed failed link is a validation error.
	if _, err := RepairLinks(context.Background(), in, bt, []sinr.Link{{From: 1, To: 0}}, InitConfig{Channel: sim.Config{Seed: 7}}); err == nil {
		t.Fatal("link failure on linkless tree did not error")
	}
	// And an empty failure set is a no-op repair that restamps to nothing.
	rres, err := RepairLinks(context.Background(), in, bt, nil, InitConfig{Channel: sim.Config{Seed: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if rres.ScheduleLength != 0 || len(rres.Tree.Up) != 0 {
		t.Fatalf("no-op link repair produced %+v", rres)
	}
}
