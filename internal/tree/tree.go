package tree

import (
	"fmt"
	"slices"
	"sort"

	"sinrconn/internal/sinr"
)

// TimedLink is a directed link together with the slot it is scheduled in and
// the transmission power its sender uses in that slot.
type TimedLink struct {
	L     sinr.Link
	Slot  int
	Power float64
}

// BiTree is the paper's Definition 1: an aggregation tree (all links
// oriented toward Root, each link scheduled after all links of its sender's
// descendants) together with the complementary dissemination tree obtained
// by reversing every link and running the schedule in opposite order.
//
// Up holds the aggregation links (x → parent(x)). The dissemination links
// are the duals of Up and are derived, not stored.
type BiTree struct {
	// Root is the node index at which aggregation terminates.
	Root int
	// Nodes lists the node indices the tree spans, including Root.
	Nodes []int
	// Up holds one aggregation link per non-root node.
	Up []TimedLink
}

// NumSlots returns the schedule length: the number of distinct slots used
// by the aggregation links. Stamps spanning fewer than 64 slots per link
// are counted on a bitmap over their span, sparser ones by sorting a copy;
// neither hashes.
func (t *BiTree) NumSlots() int {
	if len(t.Up) == 0 {
		return 0
	}
	lo, hi := t.SlotSpan()
	// Unsigned, so that no span of int stamps overflows.
	if span := uint64(hi) - uint64(lo); span < 64*uint64(len(t.Up)) {
		words := make([]uint64, span/64+1)
		k := 0
		for _, tl := range t.Up {
			i := uint64(tl.Slot) - uint64(lo)
			if w, b := &words[i/64], uint64(1)<<(i%64); *w&b == 0 {
				*w |= b
				k++
			}
		}
		return k
	}
	stamps := make([]int, len(t.Up))
	for i, tl := range t.Up {
		stamps[i] = tl.Slot
	}
	slices.Sort(stamps)
	return len(slices.Compact(stamps))
}

// SlotSpan returns the inclusive range [min, max] of slot stamps, or (0,-1)
// for an empty tree.
func (t *BiTree) SlotSpan() (min, max int) {
	if len(t.Up) == 0 {
		return 0, -1
	}
	min, max = t.Up[0].Slot, t.Up[0].Slot
	for _, tl := range t.Up[1:] {
		if tl.Slot < min {
			min = tl.Slot
		}
		if tl.Slot > max {
			max = tl.Slot
		}
	}
	return min, max
}

// Compact renumbers the slot stamps to 1..k (preserving order) and returns
// k, the schedule length. Construction protocols stamp links with raw
// simulator slot indices, which are sparse; Compact turns them into the
// dense schedule the paper counts.
func (t *BiTree) Compact() int {
	rank, stamps := RankSlots(t.Up)
	for i := range t.Up {
		t.Up[i].Slot = rank[t.Up[i].Slot] + 1
	}
	return len(stamps)
}

// Parent returns a map from node to its aggregation parent. The root is
// absent from the map.
func (t *BiTree) Parent() map[int]int {
	m := make(map[int]int, len(t.Up))
	for _, tl := range t.Up {
		m[tl.L.From] = tl.L.To
	}
	return m
}

// Children returns a map from node to its aggregation children.
func (t *BiTree) Children() map[int][]int {
	m := make(map[int][]int)
	for _, tl := range t.Up {
		m[tl.L.To] = append(m[tl.L.To], tl.L.From)
	}
	return m
}

// Down returns the dissemination links: duals of Up with the schedule
// reversed (slot s becomes maxSlot+minSlot-s), satisfying the dissemination
// ordering whenever Up satisfies the aggregation ordering.
func (t *BiTree) Down() []TimedLink {
	min, max := t.SlotSpan()
	out := make([]TimedLink, len(t.Up))
	for i, tl := range t.Up {
		out[i] = TimedLink{L: tl.L.Dual(), Slot: max + min - tl.Slot, Power: tl.Power}
	}
	return out
}

// Degrees returns the number of links (in either direction, counting the
// up-link and implicitly its dual once) incident to each node — the paper's
// node degree |L_u| divided by the dual double-count. Concretely this is
// the undirected tree degree.
func (t *BiTree) Degrees() map[int]int {
	deg := make(map[int]int)
	for _, tl := range t.Up {
		deg[tl.L.From]++
		deg[tl.L.To]++
	}
	return deg
}

// MaxDegree returns the maximum node degree, or 0 for an empty tree.
func (t *BiTree) MaxDegree() int {
	max := 0
	for _, d := range t.Degrees() {
		if d > max {
			max = d
		}
	}
	return max
}

// Links returns the bare link set of the aggregation side.
func (t *BiTree) Links() []sinr.Link {
	out := make([]sinr.Link, len(t.Up))
	for i, tl := range t.Up {
		out[i] = tl.L
	}
	return out
}

// Validate checks the structural tree properties: every non-root node in
// Nodes has exactly one up-link, the root has none, every link endpoint is
// in Nodes, and following parents from any node reaches Root acyclically.
func (t *BiTree) Validate() error {
	inNodes := make(map[int]bool, len(t.Nodes))
	for _, v := range t.Nodes {
		if inNodes[v] {
			return fmt.Errorf("tree: duplicate node %d", v)
		}
		inNodes[v] = true
	}
	if !inNodes[t.Root] {
		return fmt.Errorf("tree: root %d not in node set", t.Root)
	}
	parent := make(map[int]int, len(t.Up))
	for _, tl := range t.Up {
		if !inNodes[tl.L.From] || !inNodes[tl.L.To] {
			return fmt.Errorf("tree: link %v leaves node set", tl.L)
		}
		if tl.L.From == tl.L.To {
			return fmt.Errorf("tree: self-loop at %d", tl.L.From)
		}
		if _, dup := parent[tl.L.From]; dup {
			return fmt.Errorf("tree: node %d has two up-links", tl.L.From)
		}
		parent[tl.L.From] = tl.L.To
	}
	if _, bad := parent[t.Root]; bad {
		return fmt.Errorf("tree: root %d has an up-link", t.Root)
	}
	if len(parent) != len(t.Nodes)-1 {
		return fmt.Errorf("tree: %d up-links for %d nodes", len(parent), len(t.Nodes))
	}
	// Walk every node to the root; cycle detection by step count.
	for _, v := range t.Nodes {
		steps := 0
		for v != t.Root {
			p, ok := parent[v]
			if !ok {
				return fmt.Errorf("tree: node %d has no path to root", v)
			}
			v = p
			steps++
			if steps > len(t.Nodes) {
				return fmt.Errorf("tree: cycle detected")
			}
		}
	}
	return nil
}

// ValidateOrdering checks the aggregation-tree scheduling property: each
// link (x, y) is scheduled strictly after every link of x's descendants.
// The local condition slot(out(x)) > slot(out(c)) for every child c of x is
// equivalent by transitivity.
func (t *BiTree) ValidateOrdering() error {
	outSlot := make(map[int]int, len(t.Up))
	for _, tl := range t.Up {
		outSlot[tl.L.From] = tl.Slot
	}
	for _, tl := range t.Up {
		child := tl.L.From
		parent := tl.L.To
		if parent == t.Root {
			continue
		}
		pSlot, ok := outSlot[parent]
		if !ok {
			return fmt.Errorf("tree: non-root node %d has no out-link", parent)
		}
		if pSlot <= tl.Slot {
			return fmt.Errorf("tree: ordering violated: out(%d) slot %d ≤ out(%d) slot %d",
				parent, pSlot, child, tl.Slot)
		}
	}
	return nil
}

// ValidatePerSlotFeasible groups the aggregation links by slot and checks
// that each group is SINR-feasible under the stamped powers — the property
// that makes the slot stamps an actual schedule. Links are bucketed with a
// counting sort over the slots' ranks and one set of scratch buffers is
// reused across groups, so validation of large trees stays allocation-light
// and rides the sinr gain table for the physics.
func (t *BiTree) ValidatePerSlotFeasible(in *sinr.Instance) error {
	scratch := feasScratch{}
	return t.validateSlots(func(links []sinr.Link, powers []float64) (bool, error) {
		return in.SINRFeasibleBuf(links, powers, scratch.txs(len(links)))
	})
}

// ValidatePerSlotFeasibleFar is ValidatePerSlotFeasible under the far-field
// approximation plan q (the quadtree): each slot group is checked
// with sinr.Instance.SINRFeasibleFarBuf, which accepts a (1±ε) guard band at
// the β cut (ε = q.CertifiedMaxRelError). The check never rejects a schedule
// the exact validator accepts; a schedule it rejects is exactly infeasible.
// A nil q is the exact check.
func (t *BiTree) ValidatePerSlotFeasibleFar(in *sinr.Instance, q *sinr.QuadTree) error {
	if q == nil {
		return t.ValidatePerSlotFeasible(in)
	}
	sc := q.Acquire()
	defer q.Release(sc)
	scratch := feasScratch{}
	return t.validateSlots(func(links []sinr.Link, powers []float64) (bool, error) {
		return in.SINRFeasibleFarBuf(links, powers, q, scratch.txs(len(links)), sc)
	})
}

// feasScratch reuses one Tx buffer across a validation's slot groups.
type feasScratch struct{ buf []sinr.Tx }

func (s *feasScratch) txs(n int) []sinr.Tx {
	if cap(s.buf) < n {
		s.buf = make([]sinr.Tx, n)
	}
	return s.buf[:n]
}

// RankSlots maps the distinct slot stamps of links to dense ranks in
// ascending slot order; stamps lists the stamps by rank.
func RankSlots(links []TimedLink) (rank map[int]int, stamps []int) {
	rank = make(map[int]int)
	for _, tl := range links {
		if _, ok := rank[tl.Slot]; !ok {
			rank[tl.Slot] = 0
			stamps = append(stamps, tl.Slot)
		}
	}
	sort.Ints(stamps)
	for i, s := range stamps {
		rank[s] = i
	}
	return rank, stamps
}

// validateSlots groups the aggregation links by slot and applies check to
// each group in ascending slot order, reporting the first infeasible slot.
// The groups come from a counting sort over the slots' ranks, so each
// keeps Up's order, and with it every float summation order, however
// sparse the stamps are.
func (t *BiTree) validateSlots(check func(links []sinr.Link, powers []float64) (bool, error)) error {
	rank, stamps := RankSlots(t.Up)
	ranks := make([]int, len(t.Up))
	start := make([]int, len(stamps)+1) // group r is ordered[start[r]:start[r+1]]
	for i, tl := range t.Up {
		ranks[i] = rank[tl.Slot]
		start[ranks[i]+1]++
	}
	for r := range stamps {
		start[r+1] += start[r]
	}
	fill := slices.Clone(start[:len(stamps)])
	ordered := make([]TimedLink, len(t.Up))
	for i, tl := range t.Up {
		ordered[fill[ranks[i]]] = tl
		fill[ranks[i]]++
	}
	var links []sinr.Link
	var powers []float64
	for r, slot := range stamps {
		group := ordered[start[r]:start[r+1]]
		links, powers = links[:0], powers[:0]
		for _, tl := range group {
			links = append(links, tl.L)
			powers = append(powers, tl.Power)
		}
		ok, err := check(links, powers)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("tree: slot %d is not SINR-feasible (%d links)", slot, len(group))
		}
	}
	return nil
}

// StronglyConnected reports whether the union of the up-links and their
// duals strongly connects Nodes. For a valid tree this is implied, but the
// check is independent of Validate and is what Theorem 2 literally claims.
func (t *BiTree) StronglyConnected() bool {
	if len(t.Nodes) == 0 {
		return false
	}
	adj := make(map[int][]int, len(t.Nodes))
	for _, tl := range t.Up {
		adj[tl.L.From] = append(adj[tl.L.From], tl.L.To)
		adj[tl.L.To] = append(adj[tl.L.To], tl.L.From)
	}
	// With symmetric links, strong connectivity reduces to reachability.
	seen := map[int]bool{t.Root: true}
	stack := []int{t.Root}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range adj[v] {
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	for _, v := range t.Nodes {
		if !seen[v] {
			return false
		}
	}
	return true
}
