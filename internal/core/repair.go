package core

import (
	"context"
	"fmt"
	"sort"

	"sinrconn/internal/sim"
	"sinrconn/internal/sinr"
	"sinrconn/internal/tree"
)

// RepairLinks handles permanent *link* failures (the other half of the
// paper's "node and link failures"): the given tree links have become
// unusable (obstacle, persistent fade) while both endpoints are alive.
// Each failed link orphans exactly the subtree of its sender; the orphan
// roots re-attach via the join protocol against the main component and the
// schedule is restamped.
func RepairLinks(ctx context.Context, in *sinr.Instance, bt *tree.BiTree, failedLinks []sinr.Link, cfg InitConfig) (*RepairResult, error) {
	part, err := partitionLinks(bt, failedLinks)
	if err != nil {
		return nil, err
	}
	return restampRepair(ctx, in, part, cfg)
}

// RepairResult is the outcome of a failure-recovery run.
type RepairResult struct {
	// Tree is the repaired bi-tree over the surviving nodes, with a fresh
	// ordered, per-slot-feasible schedule (Restamp).
	Tree *tree.BiTree
	// NewRoot reports the root of the repaired tree (it changes only when
	// the old root failed).
	NewRoot int
	// OrphanRoots is the number of detached subtree roots that had to
	// re-attach.
	OrphanRoots int
	// SlotsUsed is the channel time the re-attachment protocol consumed.
	SlotsUsed int
	// ScheduleLength is the restamped schedule length.
	ScheduleLength int
	// Stats carries the engine counters of the re-attachment run (zero when
	// no orphans had to re-attach).
	Stats sim.Stats
	// Incremental reports whether the schedule was spliced (RepairIncremental
	// and friends) rather than rebuilt with Restamp.
	Incremental bool
	// SplicedLinks counts surviving links whose stamps were carried through
	// verbatim (up to order-preserving shifts); PlacedLinks counts links
	// that needed fresh slots — new attachments plus cascade bumps. Both are
	// zero on the full-restamp path.
	SplicedLinks int
	PlacedLinks  int
}

// Repair implements the paper's "node failures" extension (Conclusions,
// Section 9): given a bi-tree and a set of failed nodes, reconnect the
// surviving nodes distributedly.
//
// Failure surgery is local: removing a failed node orphans the subtrees
// rooted at its children. Each orphan subtree keeps its internal links and
// re-attaches as a unit — only its root runs the join protocol (the
// subtree's traffic is unaffected while it does). If the tree root itself
// failed, the largest orphan subtree is promoted and the rest attach to
// it. Because re-attachment stamps cannot in general be interleaved with
// the surviving stamps without breaking the aggregation ordering, the
// repaired tree's schedule is recomputed with Restamp, which restores
// ordering and per-slot feasibility in one pass.
func Repair(ctx context.Context, in *sinr.Instance, bt *tree.BiTree, failed []int, cfg InitConfig) (*RepairResult, error) {
	part, err := partitionFailed(bt, failed)
	if err != nil {
		return nil, err
	}
	return restampRepair(ctx, in, part, cfg)
}

// restampRepair re-attaches part's orphan roots and, because their new
// stamps cannot in general be interleaved with the surviving ones, rebuilds
// an ordered feasible schedule over the merged links with Restamp.
func restampRepair(ctx context.Context, in *sinr.Instance, part *partition, cfg InitConfig) (*RepairResult, error) {
	res := &RepairResult{NewRoot: part.mainRoot, OrphanRoots: len(part.orphans)}
	links, err := reattach(ctx, in, part, part.orphans, cfg, res)
	if err != nil {
		return res, err
	}
	repaired := &tree.BiTree{Root: part.mainRoot, Nodes: part.survivors, Up: append(part.keep, links...)}
	k, err := repaired.Restamp(in)
	if err != nil {
		return res, fmt.Errorf("core: restamp: %w", err)
	}
	res.ScheduleLength = k
	res.Tree = repaired
	return res, nil
}

// reattach runs the join protocol for joiners against part's main
// component — its nodes only, no links — so they attach to it and to each
// other, transitively. It returns each joiner's new out-link, in joiner
// order, carrying the join run's compacted stamp, and records the run's
// channel time and engine counters in res. It fails unless every joiner
// attached; no join runs when there are no joiners.
func reattach(ctx context.Context, in *sinr.Instance, part *partition, joiners []int, cfg InitConfig, res *RepairResult) ([]tree.TimedLink, error) {
	if len(joiners) == 0 {
		return nil, nil
	}
	if len(part.forbidden) > 0 {
		cfg.Forbidden = append(append([]sinr.Link(nil), cfg.Forbidden...), part.forbidden...)
	}
	base := &tree.BiTree{Root: part.mainRoot, Nodes: part.mainNodes}
	jres, err := Join(ctx, in, base, joiners, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: re-attachment: %w", err)
	}
	res.SlotsUsed = jres.SlotsUsed
	res.Stats = jres.Stats
	// The base has no links, so the joined tree's links are all new.
	newOut := make(map[int]tree.TimedLink, len(joiners))
	for _, tl := range jres.Tree.Up {
		newOut[tl.L.From] = tl
	}
	links := make([]tree.TimedLink, len(joiners))
	for i, j := range joiners {
		tl, ok := newOut[j]
		if !ok {
			return nil, fmt.Errorf("core: joiner %d did not re-attach", j)
		}
		links[i] = tl
	}
	return links, nil
}

// partition is the surgery plan a failure set induces on a bi-tree:
// the survivors, the links that survived, the main component (the one the
// repaired tree keeps as root), the orphan subtree roots that must
// re-attach, and the failed links re-attachment must not re-form.
type partition struct {
	failed    []int // failed nodes, ascending and distinct (nil for link failures)
	survivors []int
	keep      []tree.TimedLink
	mainRoot  int
	mainNodes []int
	orphans   []int
	forbidden []sinr.Link
}

// Node states of partitionFailed: outside the tree, in it, failed.
const (
	nodeOut uint8 = iota
	nodeIn
	nodeFailed
)

// partitionFailed computes the surgery plan. Duplicate entries in failed
// are tolerated (churn traces compose bursts with single failures, and the
// same node is routinely reported dead twice); nodes outside the tree are
// still errors — the caller owns membership bookkeeping. Every set it
// needs is a slice indexed by node, so a plan costs no hashing.
func partitionFailed(bt *tree.BiTree, failed []int) (*partition, error) {
	n := nodeBound(bt)
	state := make([]uint8, n)
	for _, v := range bt.Nodes {
		state[v] = nodeIn
	}
	var dead []int
	for _, f := range failed {
		if f < 0 || f >= n || state[f] == nodeOut {
			return nil, fmt.Errorf("core: failed node %d not in tree", f)
		}
		if state[f] == nodeIn {
			state[f] = nodeFailed
			dead = append(dead, f)
		}
	}
	if len(dead) == 0 {
		return nil, fmt.Errorf("core: no failed nodes given")
	}
	sort.Ints(dead)
	survivors := make([]int, 0, len(bt.Nodes)-len(dead))
	for _, v := range bt.Nodes {
		if state[v] != nodeFailed {
			survivors = append(survivors, v)
		}
	}
	if len(survivors) == 0 {
		return nil, fmt.Errorf("core: all nodes failed")
	}

	// Surviving links: both endpoints alive.
	var keep []tree.TimedLink
	for _, tl := range bt.Up {
		if state[tl.L.From] != nodeFailed && state[tl.L.To] != nodeFailed {
			keep = append(keep, tl)
		}
	}
	// Component roots: survivors with no surviving out-link.
	hasOut := make([]bool, n)
	for _, tl := range keep {
		hasOut[tl.L.From] = true
	}
	var roots []int
	for _, v := range survivors {
		if !hasOut[v] {
			roots = append(roots, v)
		}
	}
	// Main component: the old root's if it survived, else the largest
	// (ties: smallest root index, for determinism).
	f := newForest(n, keep)
	mainRoot := -1
	if state[bt.Root] != nodeFailed {
		mainRoot = bt.Root
	} else {
		sort.Ints(roots)
		best := -1
		for _, r := range roots {
			if s := len(f.component(r)); s > best {
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
	return &partition{
		failed:    dead,
		survivors: survivors,
		keep:      keep,
		mainRoot:  mainRoot,
		mainNodes: f.component(mainRoot),
		orphans:   orphans,
	}, nil
}

// partitionLinks computes the surgery plan of permanent link failures:
// every node survives, each failed link orphans its sender's subtree, and
// the main component is the one still reaching the root. Duplicate links
// are tolerated, as in partitionFailed; a link not in bt is an error.
func partitionLinks(bt *tree.BiTree, failedLinks []sinr.Link) (*partition, error) {
	present := make(map[sinr.Link]bool, len(bt.Up))
	for _, tl := range bt.Up {
		present[tl.L] = true
	}
	failedSet := make(map[sinr.Link]bool, len(failedLinks))
	for _, l := range failedLinks {
		if !present[l] {
			return nil, fmt.Errorf("core: link %v not in tree", l)
		}
		failedSet[l] = true
	}
	part := &partition{
		survivors: append([]int(nil), bt.Nodes...),
		mainRoot:  bt.Root,
		forbidden: failedLinks,
	}
	for _, tl := range bt.Up {
		if failedSet[tl.L] {
			part.orphans = append(part.orphans, tl.L.From)
		} else {
			part.keep = append(part.keep, tl)
		}
	}
	sort.Ints(part.orphans)
	part.mainNodes = newForest(nodeBound(bt), part.keep).component(bt.Root)
	return part, nil
}

// nodeBound returns one more than the largest node index bt names, in
// its nodes, its root or its links.
func nodeBound(bt *tree.BiTree) int {
	n := bt.Root + 1
	for _, v := range bt.Nodes {
		n = max(n, v+1)
	}
	for _, tl := range bt.Up {
		n = max(n, tl.L.From+1, tl.L.To+1)
	}
	return n
}

// forest holds the child lists of a link set over nodes 0..n-1: node v's
// children, the senders of its incoming links in link order, are
// kids[start[v]:start[v+1]].
type forest struct {
	start, kids []int32
	seen        []bool // all false between calls
	stack       []int32
}

func newForest(n int, links []tree.TimedLink) *forest {
	f := &forest{start: make([]int32, n+1), kids: make([]int32, len(links)), seen: make([]bool, n)}
	for _, tl := range links {
		f.start[tl.L.To+1]++
	}
	for v := 0; v < n; v++ {
		f.start[v+1] += f.start[v]
	}
	next := append([]int32(nil), f.start[:n]...)
	for _, tl := range links {
		f.kids[next[tl.L.To]] = int32(tl.L.From)
		next[tl.L.To]++
	}
	return f
}

// component returns the nodes of root's subtree in depth-first order: a
// node's children are pushed in link order and popped from the top.
func (f *forest) component(root int) []int {
	var nodes []int
	stack := append(f.stack[:0], int32(root))
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f.seen[v] {
			continue
		}
		f.seen[v] = true
		nodes = append(nodes, int(v))
		stack = append(stack, f.kids[f.start[v]:f.start[v+1]]...)
	}
	for _, v := range nodes {
		f.seen[v] = false
	}
	f.stack = stack
	return nodes
}
