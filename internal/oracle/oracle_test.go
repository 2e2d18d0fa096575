package oracle

import (
	"math"
	"testing"

	"sinrconn/internal/geom"
	"sinrconn/internal/sinr"
	"sinrconn/internal/tree"
)

// The oracle is the root of trust for the differential suites, so its own
// tests are hand computations on instances small enough to check with pen
// and paper, plus agreement with internal/tree's validators on trees whose
// verdict is obvious by construction.

func handParams() sinr.Params {
	return sinr.Params{Alpha: 3, Beta: 1.5, Noise: 1, Epsilon: 0.1}
}

// Three collinear points at x = 0, 1, 3: d(0,1)=1, d(1,2)=2, d(0,2)=3.
func handPoints() []geom.Point {
	return []geom.Point{{X: 0}, {X: 1}, {X: 3}}
}

func TestHandComputedSINR(t *testing.T) {
	pts, p := handPoints(), handParams()
	txs := []sinr.Tx{{Sender: 0, Power: 10}, {Sender: 2, Power: 8}}
	// Link 0→1: signal 10/1³ = 10, interference 8/2³ = 1, SINR = 10/(1+1) = 5.
	if got := SINR(pts, p, txs, sinr.Link{From: 0, To: 1}); math.Abs(got-5) > 1e-15 {
		t.Errorf("SINR(0→1) = %v, want 5", got)
	}
	// Link 2→1: signal 1, interference 10, SINR = 1/11.
	if got, want := SINR(pts, p, txs, sinr.Link{From: 2, To: 1}), 1.0/11; math.Abs(got-want) > 1e-15 {
		t.Errorf("SINR(2→1) = %v, want %v", got, want)
	}
	// Sender absent from txs → 0.
	if got := SINR(pts, p, txs, sinr.Link{From: 1, To: 2}); got != 0 {
		t.Errorf("SINR with absent sender = %v, want 0", got)
	}
}

func TestHandComputedC(t *testing.T) {
	p := handParams()
	// c = β/(1 − βN·1³/10) = 1.5/0.85.
	if got, want := C(p, 1, 10), 1.5/0.85; math.Abs(got-want) > 1e-15 {
		t.Errorf("C = %v, want %v", got, want)
	}
	// P ≤ βN·d³ → +Inf.
	if got := C(p, 2, 12); !math.IsInf(got, 1) {
		t.Errorf("C under noise floor = %v, want +Inf", got)
	}
}

func TestHandComputedAffectance(t *testing.T) {
	pts, p := handPoints(), handParams()
	l := sinr.Link{From: 0, To: 1}
	// a_2(0→1) = c·(8/10)·(1/2)³ = (1.5/0.85)·0.8·0.125 = 1.5/0.85·0.1.
	if got, want := Affectance(pts, p, 2, 8, l, 10), 1.5/0.85*0.1; math.Abs(got-want) > 1e-15 {
		t.Errorf("Affectance = %v, want %v", got, want)
	}
	// Own sender contributes zero.
	if got := Affectance(pts, p, 0, 8, l, 10); got != 0 {
		t.Errorf("own-sender affectance = %v, want 0", got)
	}
	// Co-located interferer is capped at 1+ε.
	if got := Affectance(pts, p, 1, 8, l, 10); got != 1.1 {
		t.Errorf("co-located affectance = %v, want 1.1", got)
	}
	// The cap also binds huge affectances.
	if got := Affectance(pts, p, 2, 1e9, l, 10); got != 1.1 {
		t.Errorf("capped affectance = %v, want 1.1", got)
	}
	// SetAffectance is the plain sum.
	txs := []sinr.Tx{{Sender: 0, Power: 10}, {Sender: 2, Power: 8}}
	if got, want := SetAffectance(pts, p, txs, l, 10), 1.5/0.85*0.1; math.Abs(got-want) > 1e-15 {
		t.Errorf("SetAffectance = %v, want %v", got, want)
	}
}

func TestHandComputedMeasuredAffectance(t *testing.T) {
	pts, p := handPoints(), handParams()
	l := sinr.Link{From: 0, To: 1}
	txs := []sinr.Tx{{Sender: 0, Power: 10}, {Sender: 2, Power: 8}}
	// c·I/S = (1.5/0.85)·1/10.
	if got, want := MeasuredAffectance(pts, p, txs, l, 10), 1.5/0.85*0.1; math.Abs(got-want) > 1e-15 {
		t.Errorf("MeasuredAffectance = %v, want %v", got, want)
	}
	// Link under the noise floor measures +Inf.
	if got := MeasuredAffectance(pts, p, txs, sinr.Link{From: 0, To: 2}, 1); !math.IsInf(got, 1) {
		t.Errorf("MeasuredAffectance under noise floor = %v, want +Inf", got)
	}
}

func TestHandComputedFeasibility(t *testing.T) {
	pts, p := handPoints(), handParams()
	// 0→1 alone at power 10: SINR vs noise = 10 ≥ 1.5.
	ok, err := SINRFeasible(pts, p, []sinr.Link{{From: 0, To: 1}}, []float64{10})
	if err != nil || !ok {
		t.Errorf("single link: ok=%v err=%v, want feasible", ok, err)
	}
	// Adding 2→1 (SINR 1/11) breaks the set.
	ok, err = SINRFeasible(pts, p,
		[]sinr.Link{{From: 0, To: 1}, {From: 2, To: 1}}, []float64{10, 8})
	if err != nil || ok {
		t.Errorf("conflicting pair: ok=%v err=%v, want infeasible", ok, err)
	}
	if _, err := SINRFeasible(pts, p, []sinr.Link{{From: 0, To: 1}}, nil); err == nil {
		t.Error("mismatched lengths not rejected")
	}
	// Affectance formulation agrees on the same two cases.
	ok, err = Feasible(pts, p, []sinr.Link{{From: 0, To: 1}}, []float64{10})
	if err != nil || !ok {
		t.Errorf("Feasible single link: ok=%v err=%v", ok, err)
	}
	ok, err = Feasible(pts, p,
		[]sinr.Link{{From: 0, To: 1}, {From: 2, To: 1}}, []float64{10, 8})
	if err != nil || ok {
		t.Errorf("Feasible conflicting pair: ok=%v err=%v, want infeasible", ok, err)
	}
}

func TestHandComputedResolveSlot(t *testing.T) {
	pts, p := handPoints(), handParams()
	txs := []sinr.Tx{{Sender: 0, Power: 10}, {Sender: 2, Power: 8}}
	// Listener 1 hears sender 0 at SINR 5 → decode.
	k, s := ResolveSlot(pts, p, txs, 1)
	if k != 0 || math.Abs(s-5) > 1e-15 {
		t.Errorf("ResolveSlot = (%d, %v), want (0, 5)", k, s)
	}
	// Listener 1 with comparable rivals: equal powers at equal distance.
	sym := []geom.Point{{X: 0}, {X: 1}, {X: 2}}
	k, _ = ResolveSlot(sym, p, []sinr.Tx{{Sender: 0, Power: 8}, {Sender: 2, Power: 8}}, 1)
	if k != -1 {
		t.Errorf("symmetric collision decoded tx %d, want -1", k)
	}
	// A co-located transmitter saturates the listener.
	k, _ = ResolveSlot(pts, p, []sinr.Tx{{Sender: 1, Power: 5}, {Sender: 0, Power: 10}}, 1)
	if k != -1 {
		t.Errorf("co-located transmitter decoded tx %d, want -1", k)
	}
	// Nothing transmitting → nothing decoded.
	if k, _ = ResolveSlot(pts, p, nil, 1); k != -1 {
		t.Errorf("empty slot decoded tx %d", k)
	}
}

// chainTree builds the obviously-valid bi-tree on a line: i → i+1 up to the
// root n-1, stamped leaf-first with one slot per link and SafePower.
func chainTree(pts []geom.Point, p sinr.Params) (*tree.BiTree, []int) {
	n := len(pts)
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = i
	}
	bt := &tree.BiTree{Root: n - 1, Nodes: nodes}
	for i := 0; i < n-1; i++ {
		d := pts[i].Dist(pts[i+1])
		bt.Up = append(bt.Up, tree.TimedLink{
			L:     sinr.Link{From: i, To: i + 1},
			Slot:  i + 1,
			Power: p.SafePower(d),
		})
	}
	return bt, nodes
}

func TestValidatorsAcceptChainTree(t *testing.T) {
	pts := []geom.Point{{X: 0}, {X: 1}, {X: 2.2}, {X: 3.7}, {X: 5.1}}
	p := handParams()
	bt, nodes := chainTree(pts, p)
	if err := ValidateBiTree(pts, p, bt.Root, nodes, bt.Up); err != nil {
		t.Fatalf("chain tree rejected: %v", err)
	}
	// Agreement with internal/tree on the same input.
	if err := bt.Validate(); err != nil {
		t.Fatalf("tree.Validate disagrees: %v", err)
	}
	if err := bt.ValidateOrdering(); err != nil {
		t.Fatalf("tree.ValidateOrdering disagrees: %v", err)
	}
}

func TestValidatorsRejectBrokenTrees(t *testing.T) {
	pts := []geom.Point{{X: 0}, {X: 1}, {X: 2.2}, {X: 3.7}, {X: 5.1}}
	p := handParams()

	mutate := func(f func(bt *tree.BiTree)) (*tree.BiTree, []int) {
		bt, nodes := chainTree(pts, p)
		f(bt)
		return bt, nodes
	}

	cases := []struct {
		name string
		f    func(bt *tree.BiTree)
	}{
		{"root has up-link", func(bt *tree.BiTree) {
			bt.Up = append(bt.Up, tree.TimedLink{L: sinr.Link{From: 4, To: 0}, Slot: 9, Power: 100})
		}},
		{"two up-links", func(bt *tree.BiTree) {
			bt.Up = append(bt.Up, tree.TimedLink{L: sinr.Link{From: 0, To: 2}, Slot: 9, Power: 100})
		}},
		{"self-loop", func(bt *tree.BiTree) { bt.Up[0].L.To = 0 }},
		{"leaves node set", func(bt *tree.BiTree) { bt.Up[0].L.To = 77 }},
		{"cycle", func(bt *tree.BiTree) {
			// 0→1→0 cycle detached from the root's component.
			bt.Up[0].L = sinr.Link{From: 0, To: 1}
			bt.Up[1].L = sinr.Link{From: 1, To: 0}
		}},
		{"ordering violated", func(bt *tree.BiTree) { bt.Up[0].Slot, bt.Up[1].Slot = bt.Up[1].Slot, bt.Up[0].Slot }},
		{"schedule infeasible", func(bt *tree.BiTree) {
			// Two links forced into one slot with the second's receiver
			// adjacent to the first's sender at matching powers.
			bt.Up[1].Slot = bt.Up[0].Slot
		}},
	}
	for _, tc := range cases {
		bt, nodes := mutate(tc.f)
		if err := ValidateBiTree(pts, p, bt.Root, nodes, bt.Up); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestStronglyConnectedSplit(t *testing.T) {
	up := []tree.TimedLink{{L: sinr.Link{From: 0, To: 1}}}
	if StronglyConnected([]int{0, 1, 2}, up) {
		t.Error("split accepted")
	}
	if !StronglyConnected([]int{0, 1}, up) {
		t.Error("pair rejected")
	}
	if StronglyConnected(nil, nil) {
		t.Error("empty node set accepted")
	}
}
