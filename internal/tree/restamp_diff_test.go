package tree

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"sinrconn/internal/geom"
	"sinrconn/internal/sinr"
	"sinrconn/internal/workload"
)

// restampReference is Restamp as it was written before slot groups kept
// running sums: each try copies the slot's links and powers, appends the
// candidate and re-checks the whole slot with SINRFeasible. It is the
// reference TestRestampMatchesReference holds Restamp to.
func restampReference(t *BiTree, in *sinr.Instance) (int, error) {
	if len(t.Up) == 0 {
		return 0, nil
	}
	children := t.Children()
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
	type slotGroup struct {
		links  []sinr.Link
		powers []float64
		busy   map[int]bool
	}
	var slots []slotGroup
	outSlot := make(map[int]int, len(t.Up))
	for _, i := range idx {
		tl := t.Up[i]
		floor := 0
		for _, c := range children[tl.L.From] {
			if s, ok := outSlot[c]; ok && s > floor {
				floor = s
			}
		}
		placed := false
		for s := floor; s < len(slots); s++ {
			g := &slots[s]
			if g.busy[tl.L.From] || g.busy[tl.L.To] {
				continue
			}
			candLinks := append(append([]sinr.Link(nil), g.links...), tl.L)
			candPowers := append(append([]float64(nil), g.powers...), tl.Power)
			if ok, err := in.SINRFeasible(candLinks, candPowers); err == nil && ok {
				g.links = candLinks
				g.powers = candPowers
				g.busy[tl.L.From] = true
				g.busy[tl.L.To] = true
				t.Up[i].Slot = s + 1
				outSlot[tl.L.From] = s + 1
				placed = true
				break
			}
		}
		if !placed {
			if ok, err := in.SINRFeasible([]sinr.Link{tl.L}, []float64{tl.Power}); err != nil || !ok {
				return 0, fmt.Errorf("tree: link %v infeasible alone at power %v", tl.L, tl.Power)
			}
			slots = append(slots, slotGroup{
				links:  []sinr.Link{tl.L},
				powers: []float64{tl.Power},
				busy:   map[int]bool{tl.L.From: true, tl.L.To: true},
			})
			t.Up[i].Slot = len(slots)
			outSlot[tl.L.From] = len(slots)
		}
	}
	return len(slots), nil
}

// diffTree is a random spanning tree over pts rooted at node 0: each node
// links to its nearest lower-index node or, one time in three, to a random
// one, at SafePower of the link's length times 1, 2 or 8. Node dup's parent
// is node dup−1, moved onto it beforehand, so that link has zero length
// (infinite gain) and zero power.
func diffTree(rng *rand.Rand, pts []geom.Point, alpha float64, dup int) (*sinr.Instance, *BiTree) {
	pts[dup] = pts[dup-1]
	p := sinr.DefaultParams()
	p.Alpha = alpha
	in := sinr.MustInstance(pts, p)
	bt := &BiTree{Root: 0}
	for v := range pts {
		bt.Nodes = append(bt.Nodes, v)
	}
	for v := 1; v < len(pts); v++ {
		to := rng.Intn(v)
		if rng.Intn(3) > 0 {
			for u := 0; u < v; u++ {
				if pts[u].DistSq(pts[v]) < pts[to].DistSq(pts[v]) {
					to = u
				}
			}
		}
		if v == dup {
			to = v - 1
		}
		l := sinr.Link{From: v, To: to}
		pw := p.SafePower(in.Length(l)) * []float64{1, 2, 8}[rng.Intn(3)]
		if v == dup {
			pw = 0
		}
		bt.Up = append(bt.Up, TimedLink{L: l, Slot: 1, Power: pw})
	}
	return in, bt
}

func cloneTree(bt *BiTree) *BiTree {
	return &BiTree{Root: bt.Root, Nodes: append([]int(nil), bt.Nodes...), Up: append([]TimedLink(nil), bt.Up...)}
}

// TestRestampMatchesReference is the differential gate of Restamp's slot
// groups: over every workload.Matrix() generator, α ∈ {2, 2.5, 3, 4} and
// seeds 42/123/456, Restamp and restampReference must give the same slot
// count, the same stamp on every link and the same error. Every tree holds
// a zero-power link between duplicate points; a second pass drops one
// ordinary link's power to zero, which both must reject.
func TestRestampMatchesReference(t *testing.T) {
	const n = 128
	for _, spec := range workload.Matrix() {
		for _, alpha := range []float64{2, 2.5, 3, 4} {
			for _, seed := range []int64{42, 123, 456} {
				rng := rand.New(rand.NewSource(seed))
				dup := 1 + rng.Intn(n-1)
				in, bt := diffTree(rng, spec.Gen(rng, n), alpha, dup)
				for pass := 0; pass < 2; pass++ {
					label := fmt.Sprintf("%s/alpha=%v/seed=%d/pass=%d", spec.Name, alpha, seed, pass)
					if pass == 1 {
						j := rng.Intn(len(bt.Up))
						if j == dup-1 { // Up[v−1] is node v's link
							j = (j + 1) % len(bt.Up)
						}
						bt.Up[j].Power = 0
					}
					got, want := cloneTree(bt), cloneTree(bt)
					kg, errg := got.Restamp(in)
					kw, errw := restampReference(want, in)
					if fmt.Sprint(errg) != fmt.Sprint(errw) {
						t.Fatalf("%s: error %v, reference %v", label, errg, errw)
					}
					if kg != kw {
						t.Fatalf("%s: %d slots, reference %d", label, kg, kw)
					}
					for i := range got.Up {
						if got.Up[i].Slot != want.Up[i].Slot {
							t.Fatalf("%s: link %v stamped %d, reference %d", label, got.Up[i].L, got.Up[i].Slot, want.Up[i].Slot)
						}
					}
					if pass == 0 && (errg != nil || kg < 2) {
						t.Fatalf("%s: %d slots, error %v: the tree should restamp into several slots", label, kg, errg)
					}
					if pass == 1 && errg == nil {
						t.Fatalf("%s: a zero-power link restamped without error", label)
					}
				}
			}
		}
	}
}
