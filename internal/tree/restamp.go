package tree

import (
	"fmt"
	"sort"

	"sinrconn/internal/sinr"
)

// Restamp recomputes the slot stamps of the aggregation links from scratch,
// producing a schedule that (a) satisfies the aggregation ordering (every
// link after all links of its sender's subtree), (b) keeps every slot group
// SINR-feasible under the powers already stamped on the links, and (c) is
// greedily short. It is the repair tool used after tree surgery (node
// joins, failure recovery) invalidates the construction-time stamps.
//
// The algorithm processes links in topological order (subtree height
// ascending) and first-fits each into the earliest slot that is strictly
// after every child link's slot and whose group stays feasible with the
// link added. Node-reuse within a slot is rejected (a node cannot
// participate in two links of one feasible slot). Each slot is a
// sinr.Group, so a try costs one SINR term per member of the slot rather
// than a re-check of the whole slot, with the verdict SINRFeasible gives.
func (t *BiTree) Restamp(in *sinr.Instance) (int, error) {
	if len(t.Up) == 0 {
		return 0, nil
	}
	children := t.Children()
	// Subtree height of each node (leaves = 0), iteratively.
	height := make(map[int]int, len(t.Nodes))
	var calc func(v int) int
	calc = func(v int) int {
		if h, ok := height[v]; ok {
			return h
		}
		h := 0
		for _, c := range children[v] {
			if ch := calc(c) + 1; ch > h {
				h = ch
			}
		}
		height[v] = h
		return h
	}
	for _, v := range t.Nodes {
		calc(v)
	}

	// Order links by the height of their sender's subtree; ties by length
	// (shorter first — easier to pack).
	idx := make([]int, len(t.Up))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ha, hb := height[t.Up[idx[a]].L.From], height[t.Up[idx[b]].L.From]
		if ha != hb {
			return ha < hb
		}
		return in.Length(t.Up[idx[a]].L) < in.Length(t.Up[idx[b]].L)
	})

	var slots []*sinr.Group
	outSlot := make(map[int]int, len(t.Up)) // sender → assigned slot (1-based)

	for _, i := range idx {
		tl := t.Up[i]
		// Earliest admissible slot: strictly after every child link.
		floor := 0
		for _, c := range children[tl.L.From] {
			if s, ok := outSlot[c]; ok && s > floor {
				floor = s
			}
		}
		slot := 0
		for s := floor; s < len(slots); s++ {
			if slots[s].TryAdd(tl.L, tl.Power) {
				slot = s + 1
				break
			}
		}
		if slot == 0 {
			// The link must at least be feasible alone at its power.
			g := in.SINRGroup()
			if !g.TryAdd(tl.L, tl.Power) {
				return 0, fmt.Errorf("tree: link %v infeasible alone at power %v", tl.L, tl.Power)
			}
			slots = append(slots, g)
			slot = len(slots)
		}
		t.Up[i].Slot = slot
		outSlot[tl.L.From] = slot
	}
	return len(slots), nil
}
