package core

// Tests for the incremental schedule repair path: every spliced tree must
// pass the full validator battery (the same bar as a rebuilt one), the
// untouched part of the schedule must actually be spliced through (stamp
// order preserved), and the mobility/link variants must compose.

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"sinrconn/internal/geom"
	"sinrconn/internal/sim"
	"sinrconn/internal/sinr"
	"sinrconn/internal/tree"
	"sinrconn/internal/workload"
)

// pickFailures selects k deterministic non-root victims spread across the
// tree.
func pickFailures(bt *tree.BiTree, k int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	cand := make([]int, 0, len(bt.Nodes))
	for _, v := range bt.Nodes {
		if v != bt.Root {
			cand = append(cand, v)
		}
	}
	rng.Shuffle(len(cand), func(i, j int) { cand[i], cand[j] = cand[j], cand[i] })
	if k > len(cand) {
		k = len(cand)
	}
	return cand[:k]
}

func TestRepairIncrementalValidTree(t *testing.T) {
	for _, k := range []int{1, 3, 8} {
		in, res, _ := splitInstance(t, 90+int64(k), 56, 0)
		failed := pickFailures(res.Tree, k, 7)
		rres, err := RepairIncremental(context.Background(), in, res.Tree, failed, InitConfig{Channel: sim.Config{Seed: 21}})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !rres.Incremental {
			t.Fatalf("k=%d: result not flagged incremental", k)
		}
		if got, want := len(rres.Tree.Nodes), 56-k; got != want {
			t.Fatalf("k=%d: %d survivors, want %d", k, got, want)
		}
		checkFullBiTree(t, in, rres.Tree)
		if rres.SplicedLinks == 0 {
			t.Errorf("k=%d: nothing spliced", k)
		}
	}
}

// TestRepairIncrementalSplicesVerbatim pins the point of the fast path:
// apart from cascade-bumped ancestors (each bump is a deliberate
// re-placement, counted in PlacedLinks), surviving links keep their relative
// schedule order — gap insertion is order-preserving. Concretely: sorting
// the kept links by old stamp, their new stamps contain a non-decreasing
// subsequence covering all but the bumped ones.
func TestRepairIncrementalSplicesVerbatim(t *testing.T) {
	in, res, _ := splitInstance(t, 95, 48, 0)
	failed := pickFailures(res.Tree, 4, 3)
	before := make(map[sinr.Link]int)
	for _, tl := range res.Tree.Up {
		before[tl.L] = tl.Slot
	}
	rres, err := RepairIncremental(context.Background(), in, res.Tree, failed, InitConfig{Channel: sim.Config{Seed: 22}})
	if err != nil {
		t.Fatal(err)
	}
	var kept []tree.TimedLink
	for _, tl := range rres.Tree.Up {
		if _, ok := before[tl.L]; ok {
			kept = append(kept, tl)
		}
	}
	fresh := len(rres.Tree.Up) - len(kept)
	bumped := rres.PlacedLinks - fresh
	if bumped < 0 {
		t.Fatalf("accounting broken: PlacedLinks=%d, fresh links=%d", rres.PlacedLinks, fresh)
	}
	sort.Slice(kept, func(a, b int) bool {
		if before[kept[a].L] != before[kept[b].L] {
			return before[kept[a].L] < before[kept[b].L]
		}
		return kept[a].Slot < kept[b].Slot
	})
	// Longest non-decreasing subsequence of the new stamps.
	var tails []int
	for _, tl := range kept {
		pos := sort.Search(len(tails), func(i int) bool { return tails[i] > tl.Slot })
		if pos == len(tails) {
			tails = append(tails, tl.Slot)
		} else {
			tails[pos] = tl.Slot
		}
	}
	if len(tails) < len(kept)-bumped {
		t.Fatalf("only %d of %d kept links preserved order; %d bumps cannot explain it",
			len(tails), len(kept), bumped)
	}
}

// TestRepairIncrementalMatchesFullRepair checks semantic equivalence with
// the restamp path: same survivors, both valid, both feasible.
func TestRepairIncrementalMatchesFullRepair(t *testing.T) {
	in, res, _ := splitInstance(t, 96, 52, 0)
	failed := pickFailures(res.Tree, 5, 5)
	inc, err := RepairIncremental(context.Background(), in, res.Tree, failed, InitConfig{Channel: sim.Config{Seed: 23}})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Repair(context.Background(), in, res.Tree, failed, InitConfig{Channel: sim.Config{Seed: 23}})
	if err != nil {
		t.Fatal(err)
	}
	if len(inc.Tree.Nodes) != len(full.Tree.Nodes) {
		t.Fatalf("incremental spans %d, full %d", len(inc.Tree.Nodes), len(full.Tree.Nodes))
	}
	if inc.NewRoot != full.NewRoot {
		t.Fatalf("roots diverged: %d vs %d", inc.NewRoot, full.NewRoot)
	}
	checkFullBiTree(t, in, inc.Tree)
	checkFullBiTree(t, in, full.Tree)
	if inc.ScheduleLength < full.ScheduleLength {
		// Not an error — just sanity that Compact ran (incremental may be
		// longer from fragmentation, never accidentally "shorter than
		// possible" by dropping links).
		if len(inc.Tree.Up) != len(full.Tree.Up) {
			t.Fatalf("link counts diverged: %d vs %d", len(inc.Tree.Up), len(full.Tree.Up))
		}
	}
}

func TestRepairIncrementalRootFailure(t *testing.T) {
	in, res, _ := splitInstance(t, 97, 40, 0)
	rres, err := RepairIncremental(context.Background(), in, res.Tree, []int{res.Tree.Root}, InitConfig{Channel: sim.Config{Seed: 24}})
	if err != nil {
		t.Fatal(err)
	}
	if rres.NewRoot == res.Tree.Root {
		t.Fatal("failed root still root")
	}
	checkFullBiTree(t, in, rres.Tree)
}

func TestRepairIncrementalDuplicatesAndIteration(t *testing.T) {
	// Iterated incremental repairs (the streaming-churn shape): each step
	// feeds the previous spliced tree back in, with duplicated victims.
	in, res, _ := splitInstance(t, 98, 60, 0)
	cur := res.Tree
	for step := 0; step < 6 && len(cur.Nodes) > 10; step++ {
		failed := pickFailures(cur, 2, int64(step))
		failed = append(failed, failed[0]) // duplicate on purpose
		rres, err := RepairIncremental(context.Background(), in, cur, failed, InitConfig{Channel: sim.Config{Seed: 30 + int64(step)}})
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		cur = rres.Tree
		checkFullBiTree(t, in, cur)
	}
}

func TestMoveIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	pts := workload.UniformDensity(rng, 48, 0.15)
	in := sinr.MustInstance(pts, sinr.DefaultParams())
	res, err := Init(context.Background(), in, InitConfig{Channel: sim.Config{Seed: 99}})
	if err != nil {
		t.Fatal(err)
	}
	// Move three nodes to fresh positions clear of the existing set.
	moved := pickFailures(res.Tree, 3, 1)
	newPts := append([]geom.Point(nil), pts...)
	for i, v := range moved {
		newPts[v] = geom.Point{X: 500 + 3*float64(i), Y: float64(2 * i)}
	}
	in2 := sinr.MustInstance(newPts, sinr.DefaultParams())
	rres, err := MoveIncremental(context.Background(), in2, res.Tree, moved, InitConfig{Channel: sim.Config{Seed: 100}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(rres.Tree.Nodes), len(res.Tree.Nodes); got != want {
		t.Fatalf("mobility step changed population: %d vs %d", got, want)
	}
	present := make(map[int]bool, len(rres.Tree.Nodes))
	for _, v := range rres.Tree.Nodes {
		present[v] = true
	}
	for _, v := range moved {
		if !present[v] {
			t.Fatalf("moved node %d missing after step", v)
		}
	}
	checkFullBiTree(t, in2, rres.Tree)
}

func TestRepairLinksIncremental(t *testing.T) {
	in, res, _ := splitInstance(t, 101, 48, 0)
	bt := res.Tree
	var failed []sinr.Link
	for _, tl := range bt.Up {
		failed = append(failed, tl.L)
		if len(failed) == 3 {
			break
		}
	}
	rres, err := RepairLinksIncremental(context.Background(), in, bt, failed, InitConfig{Channel: sim.Config{Seed: 102}})
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
	if got, want := len(rres.Tree.Nodes), len(bt.Nodes); got != want {
		t.Fatalf("link repair changed population: %d vs %d", got, want)
	}
}

func TestJoinMuteExcludesTargets(t *testing.T) {
	// Every member except the root is muted: all joiners must attach
	// directly to the root or to each other — never INTO a muted member.
	in, res, joiners := splitInstance(t, 103, 40, 6)
	var mute []int
	for _, v := range res.Tree.Nodes {
		if v != res.Tree.Root {
			mute = append(mute, v)
		}
	}
	jres, err := Join(context.Background(), in, res.Tree, joiners, InitConfig{Channel: sim.Config{Seed: 104}, Mute: mute})
	if err != nil {
		t.Skipf("join under heavy muting did not converge (legal): %v", err)
	}
	muted := make(map[int]bool, len(mute))
	for _, v := range mute {
		muted[v] = true
	}
	joinSet := make(map[int]bool, len(joiners))
	for _, j := range joiners {
		joinSet[j] = true
	}
	for _, tl := range jres.Tree.Up {
		if joinSet[tl.L.From] && muted[tl.L.To] {
			t.Fatalf("joiner %d attached into muted member %d", tl.L.From, tl.L.To)
		}
	}
}
