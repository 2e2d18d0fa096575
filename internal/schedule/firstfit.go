package schedule

import (
	"sort"

	"sinrconn/internal/sinr"
)

// FirstFit partitions links into SINR-feasible groups under assignment pa:
// longest links first (they are the hardest to place), each link lands in
// the first existing group that remains feasible with it added, or opens a
// new group. It returns the groups in slot order.
// Infeasible-alone links (which cannot be scheduled under pa at all) are
// returned separately rather than looping forever.
func FirstFit(in *sinr.Instance, links []sinr.Link, pa sinr.Assignment) (slots [][]sinr.Link, unschedulable []sinr.Link) {
	idx := make([]int, len(links))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return in.Length(links[idx[a]]) > in.Length(links[idx[b]])
	})

	for _, i := range idx {
		l := links[i]
		// A link that cannot stand alone under pa can never be placed.
		if !in.Feasible([]sinr.Link{l}, pa) {
			unschedulable = append(unschedulable, l)
			continue
		}
		placed := false
		for s := range slots {
			cand := append(append([]sinr.Link(nil), slots[s]...), l)
			if feasibleWith(in, cand, pa) {
				slots[s] = cand
				placed = true
				break
			}
		}
		if !placed {
			slots = append(slots, []sinr.Link{l})
		}
	}
	return slots, unschedulable
}

// feasibleWith checks feasibility, additionally rejecting node conflicts: a
// node cannot send and receive (or participate twice) in one slot.
func feasibleWith(in *sinr.Instance, links []sinr.Link, pa sinr.Assignment) bool {
	busy := make(map[int]bool, 2*len(links))
	for _, l := range links {
		if busy[l.From] || busy[l.To] {
			return false
		}
		busy[l.From] = true
		busy[l.To] = true
	}
	return in.Feasible(links, pa)
}
