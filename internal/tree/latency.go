package tree

import (
	"fmt"
	"sort"
)

// bySlot sorts a copy of links by slot and splits it into one group per
// distinct slot, in slot order. The replays below run each group as one
// slot: a node cannot receive and transmit in the same slot, so a
// transfer carries only what its sender held before the slot began.
func bySlot(links []TimedLink) [][]TimedLink {
	links = append([]TimedLink(nil), links...)
	sort.SliceStable(links, func(i, j int) bool { return links[i].Slot < links[j].Slot })
	var groups [][]TimedLink
	for i := 0; i < len(links); {
		j := i + 1
		for j < len(links) && links[j].Slot == links[i].Slot {
			j++
		}
		groups = append(groups, links[i:j])
		i = j
	}
	return groups
}

// AggregationLatency replays the converge-cast: links fire in slot order,
// each link forwarding its sender's accumulated token set to its receiver.
// It returns the number of distinct slots needed for the root to hold every
// node's token, and an error if the replay never completes (which means the
// ordering property is violated or the tree is broken).
//
// With a valid bi-tree this equals the schedule length — the paper's claim
// that aggregation completes in optimal O(log n) time for the Section 8
// trees.
func (t *BiTree) AggregationLatency() (int, error) {
	have := make(map[int]map[int]bool, len(t.Nodes))
	for _, v := range t.Nodes {
		have[v] = map[int]bool{v: true}
	}
	groups := bySlot(t.Up)
	type transfer struct{ dst, tok int }
	var pending []transfer
	for _, g := range groups {
		pending = pending[:0]
		for _, tl := range g {
			for tok := range have[tl.L.From] {
				pending = append(pending, transfer{tl.L.To, tok})
			}
		}
		for _, p := range pending {
			have[p.dst][p.tok] = true
		}
	}
	root := have[t.Root]
	for _, v := range t.Nodes {
		if !root[v] {
			return 0, fmt.Errorf("tree: aggregation incomplete: root missing token of node %d", v)
		}
	}
	return len(groups), nil
}

// BroadcastLatency replays the dissemination tree (dual links, reversed
// schedule): the root's token must reach every node. It returns the number
// of distinct slots used.
func (t *BiTree) BroadcastLatency() (int, error) {
	reached := make(map[int]bool, len(t.Nodes))
	reached[t.Root] = true
	groups := bySlot(t.Down())
	var hit []int
	for _, g := range groups {
		hit = hit[:0]
		for _, tl := range g {
			if reached[tl.L.From] {
				hit = append(hit, tl.L.To)
			}
		}
		for _, v := range hit {
			reached[v] = true
		}
	}
	for _, v := range t.Nodes {
		if !reached[v] {
			return 0, fmt.Errorf("tree: broadcast incomplete: node %d unreached", v)
		}
	}
	return len(groups), nil
}

// PairLatency replays a node-to-node message from src to dst: up the
// aggregation schedule to the root, then down the dissemination schedule.
// It returns the total number of distinct slots consumed by the two phases.
// With a bi-tree this is at most twice the schedule length, which is the
// paper's "any pairwise communication in optimal O(log n) time".
func (t *BiTree) PairLatency(src, dst int) (int, error) {
	parent := t.Parent()
	// path marks the nodes from v up to the root.
	path := func(v int) (map[int]bool, error) {
		on := map[int]bool{v: true}
		for v != t.Root {
			p, ok := parent[v]
			if !ok {
				return nil, fmt.Errorf("tree: node %d has no path to root", v)
			}
			v = p
			on[v] = true
		}
		return on, nil
	}
	// hop replays one phase: the message moves from at along a link of the
	// slot's group onto onPath, at most one hop per slot, until it reaches
	// to. It returns the slots consumed and whether it arrived.
	hop := func(groups [][]TimedLink, at, to int, onPath map[int]bool) (int, bool) {
		slots := 0
		for _, g := range groups {
			if at == to {
				break
			}
			slots++
			for _, tl := range g {
				if tl.L.From == at && onPath[tl.L.To] {
					at = tl.L.To
					break
				}
			}
		}
		return slots, at == to
	}

	onUpPath, err := path(src)
	if err != nil {
		return 0, err
	}
	upSlots, ok := hop(bySlot(t.Up), src, t.Root, onUpPath)
	if !ok {
		return 0, fmt.Errorf("tree: message from %d never reached root", src)
	}
	onDownPath, err := path(dst)
	if err != nil {
		return 0, err
	}
	downSlots, ok := hop(bySlot(t.Down()), t.Root, dst, onDownPath)
	if !ok {
		return 0, fmt.Errorf("tree: message never reached destination %d", dst)
	}
	return upSlots + downSlots, nil
}

// Depth returns the maximum number of hops from any node to the root.
func (t *BiTree) Depth() int {
	parent := t.Parent()
	max := 0
	for _, v := range t.Nodes {
		d := 0
		for v != t.Root {
			v = parent[v]
			d++
		}
		if d > max {
			max = d
		}
	}
	return max
}
