package core

// Incremental schedule repair: the streaming-churn counterpart of Repair.
//
// Repair recomputes the whole schedule with Restamp after surgery — correct,
// but O(links) SINR feasibility scans even when one leaf died. The
// incremental path instead splices: it keeps every surviving slot group
// verbatim and only finds slots for the handful of links the event created.
// Two observations make that sound without a single SINR evaluation:
//
//  1. Removing links from a feasible slot group keeps it feasible —
//     interference only decreases — so failure surgery never invalidates a
//     surviving group's feasibility, only (possibly) the ordering around
//     the orphans' new attachment points.
//
//  2. The join protocol's winners of one slot-pair were decoded TOGETHER on
//     the channel under full interference, so any subset of them is a
//     feasible group at the stamped powers. New links that attached in the
//     same pair can therefore share one fresh slot, and a new link alone in
//     a slot is trivially feasible.
//
// What remains is ordering: a re-attached orphan root's new out-link must be
// scheduled after its subtree (whose stamps are untouched) and before its
// new ancestors. The splicer gap-inserts the new link just above its
// children's slots — shifting all later stamps up by one, which preserves
// every existing relation — and then cascades bumps up the new ancestor
// chain until the ordering invariant holds again. All of it is integer
// surgery on stamps; the only channel time spent is the re-attachment
// protocol itself.
//
// The price is schedule fragmentation: each event may add a few
// single-link slots that a full Restamp would have packed. The churn driver
// watches that drift and falls back to a full restamp (or rebuild) when the
// schedule exceeds its budget — the degradation ladder of DESIGN.md §9.

import (
	"context"
	"sort"

	"sinrconn/internal/sinr"
	"sinrconn/internal/tree"
)

// RepairIncremental removes the failed nodes from bt and re-attaches the
// orphaned subtrees, splicing the surviving schedule through verbatim and
// placing only the new links (plus any ordering-violated ancestors) into
// fresh or shifted slots. Semantics match Repair — same surgery, same
// re-attachment protocol, same validity guarantees — with ScheduleLength
// possibly longer (fragmentation) and repair cost independent of tree size
// away from the failure.
func RepairIncremental(ctx context.Context, in *sinr.Instance, bt *tree.BiTree, failed []int, cfg InitConfig) (*RepairResult, error) {
	part, err := partitionFailed(bt, failed)
	if err != nil {
		return nil, err
	}
	return incrementalAttach(ctx, in, part, nil, cfg)
}

// MoveIncremental handles a mobility step: the nodes in moved have changed
// position (in is the instance over the NEW positions). Each moved node
// leaves the tree — orphaning its children's subtrees exactly like a
// failure — and rejoins as a fresh leaf at its new position in the same
// re-attachment run, so one protocol invocation repairs the whole step.
func MoveIncremental(ctx context.Context, in *sinr.Instance, bt *tree.BiTree, moved []int, cfg InitConfig) (*RepairResult, error) {
	part, err := partitionFailed(bt, moved)
	if err != nil {
		return nil, err
	}
	return incrementalAttach(ctx, in, part, part.failed, cfg)
}

// RepairLinksIncremental is the incremental counterpart of RepairLinks:
// the failed links' senders orphan and re-attach (forbidden from re-forming
// the dead links), with the surviving schedule spliced through verbatim.
func RepairLinksIncremental(ctx context.Context, in *sinr.Instance, bt *tree.BiTree, failedLinks []sinr.Link, cfg InitConfig) (*RepairResult, error) {
	part, err := partitionLinks(bt, failedLinks)
	if err != nil {
		return nil, err
	}
	return incrementalAttach(ctx, in, part, nil, cfg)
}

// incrementalAttach re-attaches part.orphans (plus rejoin, nodes re-entering
// as fresh leaves — the mobility case) and splices the resulting links into
// part's kept schedule.
func incrementalAttach(ctx context.Context, in *sinr.Instance, part *partition, rejoin []int, cfg InitConfig) (*RepairResult, error) {
	res := &RepairResult{
		NewRoot:     part.mainRoot,
		OrphanRoots: len(part.orphans),
		Incremental: true,
	}
	nodes := part.survivors
	if len(rejoin) > 0 {
		nodes = append(append([]int(nil), part.survivors...), rejoin...)
		sort.Ints(nodes)
	}
	repaired := &tree.BiTree{Root: part.mainRoot, Nodes: nodes, Up: part.keep}
	res.SplicedLinks = len(part.keep)

	joiners := append(append([]int(nil), part.orphans...), rejoin...)
	sort.Ints(joiners)
	links, err := reattach(ctx, in, part, joiners, cfg, res)
	if err != nil {
		return res, err
	}

	// The new links carry the join run's compacted stamps 1..k, ASCENDING
	// in reverse attach order: equal stamps = same slot-pair (mutually
	// feasible — see the package comment), and smaller stamps attached
	// LATER, i.e. deeper under other joiners. Processing stamps ascending
	// therefore places children before their (new) parents, so each
	// placement's floor already covers its previously placed new children.
	newByStamp := make(map[int][]tree.TimedLink)
	stamps := make([]int, 0, 8)
	for _, tl := range links {
		if _, ok := newByStamp[tl.Slot]; !ok {
			stamps = append(stamps, tl.Slot)
		}
		newByStamp[tl.Slot] = append(newByStamp[tl.Slot], tl)
	}
	sort.Ints(stamps)

	if len(stamps) > 0 { // a leaf failure places nothing: skip the O(links) index
		sp := newSplicer(repaired)
		for _, s := range stamps {
			group := newByStamp[s]
			sort.Slice(group, func(a, b int) bool { return group[a].L.From < group[b].L.From })
			sp.place(group)
			res.PlacedLinks += len(group)
		}
		res.PlacedLinks += sp.bumped
	}

	res.ScheduleLength = repaired.Compact()
	res.Tree = repaired
	return res, nil
}

// splicer performs the stamp surgery of incremental repair: gap insertion
// (shift every stamp above x up by one — order-preserving, so feasibility
// and ordering of untouched links survive) plus the ancestor bump cascade.
type splicer struct {
	t        *tree.BiTree
	outIdx   map[int]int   // sender → index into t.Up
	children map[int][]int // current child lists (updated as links land)
	bumped   int
}

func newSplicer(t *tree.BiTree) *splicer {
	sp := &splicer{
		t:        t,
		outIdx:   make(map[int]int, len(t.Up)),
		children: make(map[int][]int, len(t.Up)),
	}
	for i, tl := range t.Up {
		sp.outIdx[tl.L.From] = i
		sp.children[tl.L.To] = append(sp.children[tl.L.To], tl.L.From)
	}
	return sp
}

// shiftAbove opens a gap at x+1: every stamp strictly above x moves up one.
func (sp *splicer) shiftAbove(x int) {
	up := sp.t.Up
	for i := range up {
		if up[i].Slot > x {
			up[i].Slot++
		}
	}
}

// maxChildSlot returns the largest out-link stamp among v's current
// children (0 when all children are leaves of the surgery — slots are
// ≥ 1 on compacted trees, so 0 is a safe floor).
func (sp *splicer) maxChildSlot(v int) int {
	m := 0
	for _, c := range sp.children[v] {
		if i, ok := sp.outIdx[c]; ok && sp.t.Up[i].Slot > m {
			m = sp.t.Up[i].Slot
		}
	}
	return m
}

// place lands one same-pair group of new links in a single fresh slot just
// above the group's ordering floor, then repairs the ordering upward from
// each attachment point.
func (sp *splicer) place(group []tree.TimedLink) {
	floor := 0
	for _, tl := range group {
		if f := sp.maxChildSlot(tl.L.From); f > floor {
			floor = f
		}
	}
	sp.shiftAbove(floor)
	slot := floor + 1
	for _, tl := range group {
		tl.Slot = slot
		sp.t.Up = append(sp.t.Up, tl)
		sp.outIdx[tl.L.From] = len(sp.t.Up) - 1
		sp.children[tl.L.To] = append(sp.children[tl.L.To], tl.L.From)
	}
	for _, tl := range group {
		sp.cascade(tl.L.To)
	}
}

// cascade walks up from v bumping every ancestor whose out-link is no
// longer strictly after its children. Each bump is its own gap insertion,
// so the bumped link rides alone in a fresh feasible slot; the walk stops
// at the first ancestor already in order (or the root), which bounds the
// cascade by the attachment point's depth.
func (sp *splicer) cascade(v int) {
	for {
		i, ok := sp.outIdx[v]
		if !ok {
			return // root (or an orphan root not yet placed — its own
			// placement will re-run the cascade from its parent)
		}
		f := sp.maxChildSlot(v)
		if sp.t.Up[i].Slot > f {
			return
		}
		sp.shiftAbove(f)
		sp.t.Up[i].Slot = f + 1
		sp.bumped++
		v = sp.t.Up[i].L.To
	}
}
