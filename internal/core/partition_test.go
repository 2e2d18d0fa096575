package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"sinrconn/internal/sim"
	"sinrconn/internal/sinr"
	"sinrconn/internal/tree"
	"sinrconn/internal/workload"
)

// partitionFailedRef is the map-based surgery plan partitionFailed
// replaced, kept as its reference: the same plan, with every set a Go map.
func partitionFailedRef(bt *tree.BiTree, failed []int) (*partition, error) {
	failedSet := make(map[int]bool, len(failed))
	inTree := make(map[int]bool, len(bt.Nodes))
	for _, v := range bt.Nodes {
		inTree[v] = true
	}
	for _, f := range failed {
		if !inTree[f] {
			return nil, fmt.Errorf("core: failed node %d not in tree", f)
		}
		failedSet[f] = true
	}
	if len(failedSet) == 0 {
		return nil, fmt.Errorf("core: no failed nodes given")
	}
	survivors := make([]int, 0, len(bt.Nodes)-len(failedSet))
	for _, v := range bt.Nodes {
		if !failedSet[v] {
			survivors = append(survivors, v)
		}
	}
	if len(survivors) == 0 {
		return nil, fmt.Errorf("core: all nodes failed")
	}
	var keep []tree.TimedLink
	for _, tl := range bt.Up {
		if !failedSet[tl.L.From] && !failedSet[tl.L.To] {
			keep = append(keep, tl)
		}
	}
	hasOut := make(map[int]bool, len(keep))
	for _, tl := range keep {
		hasOut[tl.L.From] = true
	}
	var roots []int
	for _, v := range survivors {
		if !hasOut[v] {
			roots = append(roots, v)
		}
	}
	children := make(map[int][]int)
	for _, tl := range keep {
		children[tl.L.To] = append(children[tl.L.To], tl.L.From)
	}
	component := func(root int) []int {
		var nodes []int
		seen := map[int]bool{}
		stack := []int{root}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[v] {
				continue
			}
			seen[v] = true
			nodes = append(nodes, v)
			stack = append(stack, children[v]...)
		}
		return nodes
	}
	mainRoot := -1
	if !failedSet[bt.Root] {
		mainRoot = bt.Root
	} else {
		sort.Ints(roots)
		best := -1
		for _, r := range roots {
			if s := len(component(r)); s > best {
				best = s
				mainRoot = r
			}
		}
	}
	var orphans []int
	for _, r := range roots {
		if r != mainRoot {
			orphans = append(orphans, r)
		}
	}
	dead := make([]int, 0, len(failedSet))
	for v := range failedSet {
		dead = append(dead, v)
	}
	sort.Ints(dead)
	return &partition{
		failed:    dead,
		survivors: survivors,
		keep:      keep,
		mainRoot:  mainRoot,
		mainNodes: component(mainRoot),
		orphans:   orphans,
	}, nil
}

// TestPartitionFailedMatchesReference requires partitionFailed to produce
// exactly the map-based reference's plan — survivors, kept links, main
// root, the main component in the same depth-first order, orphans and the
// failed set — or the same error, over the scenario matrix and seeds 42,
// 123 and 456, for one failure, several (with a duplicate), a failed
// root, a failed root with several others, every node but one, and a node
// outside the tree.
func TestPartitionFailedMatchesReference(t *testing.T) {
	const n = 48
	promoted := 0 // plans that promoted a root and left orphans
	for _, spec := range workload.Matrix() {
		for _, seed := range []int64{42, 123, 456} {
			in := sinr.MustInstance(spec.Gen(rand.New(rand.NewSource(seed)), n), sinr.DefaultParams())
			res, err := Init(context.Background(), in, InitConfig{Channel: sim.Config{Seed: seed}})
			if err != nil {
				t.Fatalf("%s seed %d: init: %v", spec.Name, seed, err)
			}
			bt := res.Tree
			rng := rand.New(rand.NewSource(seed))
			pick := func(k int) []int {
				var out []int
				for _, i := range rng.Perm(len(bt.Nodes))[:k] {
					if v := bt.Nodes[i]; v != bt.Root {
						out = append(out, v)
					}
				}
				return out
			}
			several := pick(6)
			several = append(several, several[0])
			cases := map[string][]int{
				"one":          pick(1),
				"several":      several,
				"root":         {bt.Root},
				"root+several": append(pick(5), bt.Root),
				"all-but-one":  bt.Nodes[1:],
				"outside":      {n + 3},
			}
			for name, failed := range cases {
				if len(failed) == 0 {
					failed = []int{bt.Nodes[len(bt.Nodes)-1]}
				}
				got, gerr := partitionFailed(bt, failed)
				want, werr := partitionFailedRef(bt, failed)
				label := fmt.Sprintf("%s seed %d %s %v", spec.Name, seed, name, failed)
				if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
					t.Fatalf("%s: error %v, reference %v", label, gerr, werr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: plan\n%+v\nreference\n%+v", label, got, want)
				}
				if got != nil && got.mainRoot != bt.Root && len(got.orphans) > 0 {
					promoted++
				}
			}
		}
	}
	if promoted == 0 {
		t.Fatal("no failed root promoted a component over others")
	}
}
