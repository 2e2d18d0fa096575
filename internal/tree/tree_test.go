package tree

import (
	"math/rand"
	"strings"
	"testing"

	"sinrconn/internal/geom"
	"sinrconn/internal/sinr"
)

// chainTree builds the path 0 ← 1 ← 2 ← ... ← n-1 rooted at 0, with the
// link out of node i scheduled at slot n-i (leaf first), satisfying the
// aggregation ordering.
func chainTree(n int) *BiTree {
	t := &BiTree{Root: 0}
	for i := 0; i < n; i++ {
		t.Nodes = append(t.Nodes, i)
	}
	for i := n - 1; i >= 1; i-- {
		t.Up = append(t.Up, TimedLink{
			L:     sinr.Link{From: i, To: i - 1},
			Slot:  n - i,
			Power: 100,
		})
	}
	return t
}

// starTree builds a star with all leaves linking to root 0 in distinct slots.
func starTree(n int) *BiTree {
	t := &BiTree{Root: 0}
	for i := 0; i < n; i++ {
		t.Nodes = append(t.Nodes, i)
	}
	for i := 1; i < n; i++ {
		t.Up = append(t.Up, TimedLink{L: sinr.Link{From: i, To: 0}, Slot: i, Power: 10})
	}
	return t
}

func TestValidateAcceptsGoodTrees(t *testing.T) {
	for _, tr := range []*BiTree{chainTree(6), starTree(5)} {
		if err := tr.Validate(); err != nil {
			t.Errorf("Validate: %v", err)
		}
		if err := tr.ValidateOrdering(); err != nil {
			t.Errorf("ValidateOrdering: %v", err)
		}
		if !tr.StronglyConnected() {
			t.Error("StronglyConnected = false")
		}
	}
}

func TestValidateRejectsBrokenTrees(t *testing.T) {
	tests := []struct {
		name string
		mod  func(*BiTree)
	}{
		{"duplicate node", func(tr *BiTree) { tr.Nodes = append(tr.Nodes, tr.Nodes[0]) }},
		{"root missing", func(tr *BiTree) { tr.Root = 99 }},
		{"link leaves node set", func(tr *BiTree) {
			tr.Up = append(tr.Up, TimedLink{L: sinr.Link{From: 99, To: 0}})
		}},
		{"self loop", func(tr *BiTree) {
			tr.Up[0].L = sinr.Link{From: 2, To: 2}
		}},
		{"two up-links", func(tr *BiTree) {
			tr.Up = append(tr.Up, TimedLink{L: sinr.Link{From: tr.Up[0].L.From, To: 0}})
			tr.Nodes = append(tr.Nodes, 77) // keep link-count check from firing first
		}},
		{"root has up-link", func(tr *BiTree) {
			tr.Up[0].L = sinr.Link{From: 0, To: 1}
		}},
		{"orphan node", func(tr *BiTree) {
			tr.Nodes = append(tr.Nodes, 50)
		}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			tr := chainTree(5)
			tc.mod(tr)
			if err := tr.Validate(); err == nil {
				t.Error("Validate accepted a broken tree")
			}
		})
	}
}

func TestValidateDetectsCycle(t *testing.T) {
	tr := &BiTree{Root: 0, Nodes: []int{0, 1, 2, 3}}
	tr.Up = []TimedLink{
		{L: sinr.Link{From: 1, To: 2}},
		{L: sinr.Link{From: 2, To: 3}},
		{L: sinr.Link{From: 3, To: 1}},
	}
	if err := tr.Validate(); err == nil {
		t.Error("cycle not detected")
	}
}

func TestOrderingViolationDetected(t *testing.T) {
	tr := chainTree(4)
	// Schedule a parent's out-link before its child's.
	for i := range tr.Up {
		tr.Up[i].Slot = i + 1 // node 3 gets slot 1 ... node 1 gets slot 3
	}
	// chainTree stores links from leaf inward, so this is now ordered
	// correctly; flip to break it.
	tr.Up[0].Slot, tr.Up[len(tr.Up)-1].Slot = tr.Up[len(tr.Up)-1].Slot, tr.Up[0].Slot
	if err := tr.ValidateOrdering(); err == nil {
		t.Error("ordering violation not detected")
	}
}

func TestOrderingMissingOutLink(t *testing.T) {
	tr := &BiTree{Root: 0, Nodes: []int{0, 1, 2}}
	tr.Up = []TimedLink{{L: sinr.Link{From: 2, To: 1}, Slot: 1}}
	if err := tr.ValidateOrdering(); err == nil {
		t.Error("missing out-link not detected")
	}
}

func TestCompact(t *testing.T) {
	tr := starTree(4)
	tr.Up[0].Slot = 100
	tr.Up[1].Slot = 5
	tr.Up[2].Slot = 100
	k := tr.Compact()
	if k != 2 {
		t.Fatalf("Compact = %d, want 2", k)
	}
	if tr.Up[1].Slot != 1 || tr.Up[0].Slot != 2 || tr.Up[2].Slot != 2 {
		t.Errorf("compacted slots: %+v", tr.Up)
	}
	if tr.NumSlots() != 2 {
		t.Errorf("NumSlots after Compact = %d", tr.NumSlots())
	}
}

func TestCompactEmpty(t *testing.T) {
	tr := &BiTree{Root: 0, Nodes: []int{0}}
	if k := tr.Compact(); k != 0 {
		t.Errorf("Compact(empty) = %d", k)
	}
	if tr.NumSlots() != 0 {
		t.Errorf("NumSlots(empty) = %d", tr.NumSlots())
	}
}

func TestSlotSpan(t *testing.T) {
	tr := starTree(4) // slots 1,2,3
	min, max := tr.SlotSpan()
	if min != 1 || max != 3 {
		t.Errorf("SlotSpan = %d,%d", min, max)
	}
	empty := &BiTree{Root: 0, Nodes: []int{0}}
	if min, max = empty.SlotSpan(); max >= min {
		t.Errorf("empty SlotSpan = %d,%d", min, max)
	}
}

func TestParentChildren(t *testing.T) {
	tr := chainTree(4)
	par := tr.Parent()
	if len(par) != 3 || par[3] != 2 || par[1] != 0 {
		t.Errorf("Parent = %v", par)
	}
	ch := tr.Children()
	if len(ch[0]) != 1 || ch[0][0] != 1 {
		t.Errorf("Children = %v", ch)
	}
}

func TestDegrees(t *testing.T) {
	tr := starTree(5)
	deg := tr.Degrees()
	if deg[0] != 4 {
		t.Errorf("root degree = %d, want 4", deg[0])
	}
	for i := 1; i < 5; i++ {
		if deg[i] != 1 {
			t.Errorf("leaf %d degree = %d", i, deg[i])
		}
	}
	if tr.MaxDegree() != 4 {
		t.Errorf("MaxDegree = %d", tr.MaxDegree())
	}
	empty := &BiTree{}
	if empty.MaxDegree() != 0 {
		t.Error("MaxDegree(empty) != 0")
	}
}

func TestDownReversesSchedule(t *testing.T) {
	tr := chainTree(4)
	down := tr.Down()
	if len(down) != 3 {
		t.Fatalf("Down len = %d", len(down))
	}
	// The up-link with the largest slot must become the down-link with the
	// smallest, and directions must flip.
	upMax := tr.Up[0]
	for _, tl := range tr.Up {
		if tl.Slot > upMax.Slot {
			upMax = tl
		}
	}
	for _, tl := range down {
		if tl.L == upMax.L.Dual() {
			min, _ := tr.SlotSpan()
			if tl.Slot != min {
				t.Errorf("dual of latest up-link has down slot %d, want %d", tl.Slot, min)
			}
		}
		if tl.Power != 100 {
			t.Errorf("down power = %v", tl.Power)
		}
	}
}

func TestStronglyConnectedFailsOnSplit(t *testing.T) {
	tr := chainTree(5)
	tr.Up = tr.Up[:2] // drop links, leaving unreachable nodes
	if tr.StronglyConnected() {
		t.Error("disconnected tree reported connected")
	}
	empty := &BiTree{}
	if empty.StronglyConnected() {
		t.Error("empty tree reported connected")
	}
}

func TestPerSlotFeasible(t *testing.T) {
	// Two distant link pairs in the same slot are feasible; two adjacent
	// pairs in the same slot with huge mutual interference are not.
	pts := []geom.Point{{X: 0}, {X: 1}, {X: 1000}, {X: 1001}}
	in := sinr.MustInstance(pts, sinr.DefaultParams())
	pw := in.Params().SafePower(1)
	good := &BiTree{Root: 0, Nodes: []int{0, 1, 2, 3}}
	good.Up = []TimedLink{
		{L: sinr.Link{From: 1, To: 0}, Slot: 1, Power: pw},
		{L: sinr.Link{From: 2, To: 3}, Slot: 1, Power: pw},
		{L: sinr.Link{From: 3, To: 0}, Slot: 2, Power: in.Params().SafePower(1001)},
	}
	if err := good.ValidatePerSlotFeasible(in); err != nil {
		t.Errorf("feasible schedule rejected: %v", err)
	}

	// Two long links whose receivers sit next to each other: each sender is
	// nearly as close to the other link's receiver as to its own, so SINR
	// drops below β when both fire in one slot.
	ptsBad := []geom.Point{{X: 0}, {X: 10}, {X: 11}, {X: 21}}
	inBad := sinr.MustInstance(ptsBad, sinr.DefaultParams())
	pwBad := inBad.Params().SafePower(10)
	bad := &BiTree{Root: 0, Nodes: []int{0, 1, 2, 3}}
	bad.Up = []TimedLink{
		{L: sinr.Link{From: 0, To: 1}, Slot: 1, Power: pwBad},
		{L: sinr.Link{From: 3, To: 2}, Slot: 1, Power: pwBad},
	}
	if err := bad.ValidatePerSlotFeasible(inBad); err == nil {
		t.Error("infeasible slot accepted")
	}
}

// TestPerSlotFeasibleNamesFirstSlot: with several infeasible slots, the
// error names the lowest, every time — also when the stamps are spread far
// sparser than the link count (here 6 links over 100 001 slots).
func TestPerSlotFeasibleNamesFirstSlot(t *testing.T) {
	var pts []geom.Point
	bad := &BiTree{Root: 0}
	// Three copies of TestPerSlotFeasible's infeasible pair, far apart,
	// listed in descending slot order.
	for k, slot := range []int{100000, 50000, 0} {
		x, b := float64(k)*1e4, len(pts)
		pts = append(pts, geom.Point{X: x}, geom.Point{X: x + 10}, geom.Point{X: x + 11}, geom.Point{X: x + 21})
		bad.Up = append(bad.Up,
			TimedLink{L: sinr.Link{From: b, To: b + 1}, Slot: slot},
			TimedLink{L: sinr.Link{From: b + 3, To: b + 2}, Slot: slot})
	}
	in := sinr.MustInstance(pts, sinr.DefaultParams())
	for i := range bad.Up {
		bad.Up[i].Power = in.Params().SafePower(10)
	}
	for i := 0; i < 20; i++ {
		if err := bad.ValidatePerSlotFeasible(in); err == nil || !strings.Contains(err.Error(), "slot 0 is") {
			t.Fatalf("validation %d: %v, want slot 0 named", i, err)
		}
	}
}

func TestAggregationLatency(t *testing.T) {
	tr := chainTree(5)
	slots, err := tr.AggregationLatency()
	if err != nil {
		t.Fatal(err)
	}
	if slots != 4 {
		t.Errorf("chain latency = %d, want 4", slots)
	}
	star := starTree(6)
	slots, err = star.AggregationLatency()
	if err != nil {
		t.Fatal(err)
	}
	if slots != 5 {
		t.Errorf("star latency = %d, want 5", slots)
	}
}

// sameSlotRelays returns the chain 2 → 1 → 0 with both links in slot 1,
// in both list orders: node 1 would have to receive and transmit in the
// same slot, which ValidateOrdering rejects and no replay may count.
func sameSlotRelays() []*BiTree {
	in := TimedLink{L: sinr.Link{From: 2, To: 1}, Slot: 1, Power: 100}
	out := TimedLink{L: sinr.Link{From: 1, To: 0}, Slot: 1, Power: 100}
	return []*BiTree{
		{Root: 0, Nodes: []int{0, 1, 2}, Up: []TimedLink{in, out}},
		{Root: 0, Nodes: []int{0, 1, 2}, Up: []TimedLink{out, in}},
	}
}

func TestAggregationIncompleteDetected(t *testing.T) {
	tr := chainTree(4)
	// Break ordering so the replay cannot complete: fire the root-adjacent
	// link first. Chain: 3→2→1→0; give 1→0 the earliest slot and 3→2 the
	// latest, then token of 3 never reaches 0.
	for i := range tr.Up {
		if tr.Up[i].L.From == 1 {
			tr.Up[i].Slot = 0
		}
		if tr.Up[i].L.From == 3 {
			tr.Up[i].Slot = 10
		}
	}
	if _, err := tr.AggregationLatency(); err == nil {
		t.Error("incomplete aggregation not detected")
	}
	for i, bt := range sameSlotRelays() {
		if bt.ValidateOrdering() == nil {
			t.Fatalf("order %d: same-slot relay passes ValidateOrdering", i)
		}
		if lat, err := bt.AggregationLatency(); err == nil {
			t.Errorf("order %d: same-slot relay counted as aggregation in %d slots", i, lat)
		}
	}
}

func TestBroadcastLatency(t *testing.T) {
	tr := chainTree(5)
	slots, err := tr.BroadcastLatency()
	if err != nil {
		t.Fatal(err)
	}
	if slots != 4 {
		t.Errorf("broadcast latency = %d, want 4", slots)
	}
	for i, bt := range sameSlotRelays() {
		if lat, err := bt.BroadcastLatency(); err == nil {
			t.Errorf("order %d: same-slot relay counted as broadcast in %d slots", i, lat)
		}
	}
}

func TestBroadcastIncompleteDetected(t *testing.T) {
	tr := chainTree(4)
	tr.Up = tr.Up[:2]
	tr.Nodes = []int{0, 1, 2, 3}
	if _, err := tr.BroadcastLatency(); err == nil {
		t.Error("incomplete broadcast not detected")
	}
}

func TestPairLatency(t *testing.T) {
	tr := chainTree(5)
	lat, err := tr.PairLatency(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if lat <= 0 {
		t.Errorf("PairLatency = %d", lat)
	}
	// Bi-tree guarantee: at most up-slots + down-slots = 2× schedule length.
	if max := 2 * tr.NumSlots(); lat > max {
		t.Errorf("PairLatency %d exceeds 2×schedule %d", lat, max)
	}
	// Degenerate pair: src == dst == root costs nothing on the up phase
	// (already at root) and nothing down.
	lat, err = tr.PairLatency(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lat != 0 {
		t.Errorf("root-to-root latency = %d", lat)
	}
	// The message advances at most one hop per slot.
	for i, bt := range sameSlotRelays() {
		if lat, err := bt.PairLatency(2, 0); err == nil {
			t.Errorf("order %d: same-slot relay carried 2 → 0 in %d slots", i, lat)
		}
		if lat, err := bt.PairLatency(0, 2); err == nil {
			t.Errorf("order %d: same-slot relay carried 0 → 2 in %d slots", i, lat)
		}
	}
}

func TestDepth(t *testing.T) {
	if d := chainTree(5).Depth(); d != 4 {
		t.Errorf("chain depth = %d", d)
	}
	if d := starTree(5).Depth(); d != 1 {
		t.Errorf("star depth = %d", d)
	}
}

func TestRandomTreesValidate(t *testing.T) {
	// Random recursive trees with leaf-first slots must pass all validators.
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(40)
		tr := &BiTree{Root: 0}
		for i := 0; i < n; i++ {
			tr.Nodes = append(tr.Nodes, i)
		}
		// Node i attaches to a random earlier node; slot decreasing in i
		// would violate ordering, so schedule out(i) at slot n-i+depth...
		// simplest correct stamp: slot = n - i (children have smaller i ⇒
		// larger slot? No: parent has SMALLER index, needs LARGER slot).
		// out(i) links i→p with p < i, so slot(out(p)) must be > slot(out(i)):
		// use slot = n - i, increasing as index decreases. ✓
		for i := 1; i < n; i++ {
			p := rng.Intn(i)
			tr.Up = append(tr.Up, TimedLink{L: sinr.Link{From: i, To: p}, Slot: n - i, Power: 1})
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := tr.ValidateOrdering(); err != nil {
			t.Fatalf("trial %d ordering: %v", trial, err)
		}
		if !tr.StronglyConnected() {
			t.Fatalf("trial %d not connected", trial)
		}
		if _, err := tr.AggregationLatency(); err != nil {
			t.Fatalf("trial %d aggregation: %v", trial, err)
		}
		if _, err := tr.BroadcastLatency(); err != nil {
			t.Fatalf("trial %d broadcast: %v", trial, err)
		}
		a, b := rng.Intn(n), rng.Intn(n)
		if _, err := tr.PairLatency(a, b); err != nil {
			t.Fatalf("trial %d pair(%d,%d): %v", trial, a, b, err)
		}
	}
}

func TestLinks(t *testing.T) {
	tr := starTree(3)
	ls := tr.Links()
	if len(ls) != 2 {
		t.Fatalf("Links len = %d", len(ls))
	}
	for i, l := range ls {
		if l != tr.Up[i].L {
			t.Errorf("Links[%d] = %v", i, l)
		}
	}
}
