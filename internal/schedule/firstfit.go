package schedule

import (
	"sort"

	"sinrconn/internal/sinr"
)

// FirstFit partitions links into SINR-feasible groups under assignment pa:
// longest links first (they are the hardest to place), each link lands in
// the first existing group that remains feasible with it added and shares
// no node with it, or opens a new group. It returns the groups in slot
// order. Each group is a sinr.Group in the affectance form, so a try costs
// one affectance term per member, with the verdict Feasible gives on the
// whole group.
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

	var groups []*sinr.Group
	for _, i := range idx {
		l := links[i]
		// A link that cannot stand alone under pa can never be placed.
		if !in.Feasible([]sinr.Link{l}, pa) {
			unschedulable = append(unschedulable, l)
			continue
		}
		p := pa.Power(in, l)
		placed := false
		for _, g := range groups {
			if g.TryAdd(l, p) {
				placed = true
				break
			}
		}
		if !placed {
			g := in.AffectanceGroup()
			g.TryAdd(l, p) // fits: l stands alone
			groups = append(groups, g)
		}
	}
	for _, g := range groups {
		slots = append(slots, g.Links())
	}
	return slots, unschedulable
}
