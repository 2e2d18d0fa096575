package sinr

// The Morton-layout drift gates. PR 9 re-laid the pyramid in Z-order (a
// node's children are t<<2 .. t<<2|3 instead of row-major (2y+dy)·2dim +
// 2x+dx) and specialized the α power kernel; the claim is that the layout
// is a pure relabeling — every float expression folds and compares the
// same values in the same order, so aggregates, walks, and SINR values are
// BIT-IDENTICAL to the old engine, not merely close. These tests carry a
// trimmed transcription of the pre-Morton kernel (git history: the
// row-major quadtree.go) and pin the live kernel against it across the
// full generator matrix × α × ε.

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"sinrconn/internal/workload"
)

// naiveMorton is the per-bit reference interleave (independently
// re-derived here; TestMortonOracleLockstep in the black-box suite crosses
// the codec against oracle.Morton as well — this package cannot import the
// oracle without a cycle through internal/tree).
func naiveMorton(x, y int32) int32 {
	var id int32
	for i := 0; i < 16; i++ {
		id |= (x >> i & 1) << (2 * i)
		id |= (y >> i & 1) << (2*i + 1)
	}
	return id
}

// TestMortonRoundTrip exhaustively checks the byte-table codec against the
// naive per-bit interleave at every supported depth: encode∘decode is the
// identity on [0,2^d)² and every code is in range.
func TestMortonRoundTrip(t *testing.T) {
	for d := 0; d <= maxQuadLevels; d++ {
		dim := int32(1) << d
		for y := int32(0); y < dim; y++ {
			for x := int32(0); x < dim; x++ {
				c := MortonEncode(x, y)
				if want := naiveMorton(x, y); c != want {
					t.Fatalf("depth %d: MortonEncode(%d,%d) = %d, naive %d", d, x, y, c, want)
				}
				if c < 0 || c >= dim*dim {
					t.Fatalf("depth %d: MortonEncode(%d,%d) = %d outside [0,%d)", d, x, y, c, dim*dim)
				}
				gx, gy := MortonDecode(c)
				if gx != x || gy != y {
					t.Fatalf("depth %d: MortonDecode(MortonEncode(%d,%d)) = (%d,%d)", d, x, y, gx, gy)
				}
			}
		}
	}
	// Codes are dense: every id in [0, dim²) decodes into the grid.
	for d := 0; d <= maxQuadLevels; d++ {
		dim := int32(1) << d
		for id := int32(0); id < dim*dim; id++ {
			x, y := MortonDecode(id)
			if x < 0 || x >= dim || y < 0 || y >= dim || MortonEncode(x, y) != id {
				t.Fatalf("depth %d: id %d decodes to (%d,%d) outside the grid or not a fixed point", d, id, x, y)
			}
		}
	}
}

// legacyScratch is the pre-Morton (row-major) per-slot state, transcribed
// from the old quadtree.go: node-local ids are y·dim + x, a parent is
// (y>>1)·(dim>>1) + x>>1, and the power kernel is the generic PowAlphaSq.
// It shares the live plan's geometry (identical by TestQuadPlanLockstep —
// the layout change did not touch the plan derivation).
type legacyScratch struct {
	q      *QuadTree
	leafOf []int32 // row-major leaf of each node
	epoch  uint32
	stamp  []uint32
	mass   []float64
	cenX   []float64
	cenY   []float64
	pmax   []float64
	active [][]int32
	start  []int32
	fill   []int32
	order  []int32
}

func newLegacyScratch(q *QuadTree) *legacyScratch {
	n := len(q.in.pts)
	leafOf := make([]int32, n)
	for i, m := range q.leafOf {
		x, y := MortonDecode(m)
		leafOf[i] = y*q.leafDim + x
	}
	active := make([][]int32, q.levels+1)
	for lvl := range active {
		active[lvl] = make([]int32, 0, 1<<(2*lvl))
	}
	return &legacyScratch{
		q:      q,
		leafOf: leafOf,
		stamp:  make([]uint32, q.nodes),
		mass:   make([]float64, q.nodes),
		cenX:   make([]float64, q.nodes),
		cenY:   make([]float64, q.nodes),
		pmax:   make([]float64, q.nodes),
		active: active,
		start:  make([]int32, q.Leaves()),
		fill:   make([]int32, q.Leaves()),
		order:  make([]int32, n),
	}
}

func (sc *legacyScratch) accumulate(txs []Tx) {
	q := sc.q
	sc.epoch++
	ep := sc.epoch
	l := q.levels
	for lvl := range sc.active {
		sc.active[lvl] = sc.active[lvl][:0]
	}
	leafOff := q.levelOff[l]
	leaves := sc.active[l]
	for i := range txs {
		t := sc.leafOf[txs[i].Sender]
		g := leafOff + t
		if sc.stamp[g] != ep {
			sc.stamp[g] = ep
			sc.mass[g], sc.cenX[g], sc.cenY[g], sc.pmax[g] = 0, 0, 0, 0
			sc.fill[t] = 0
			leaves = append(leaves, t)
		}
		p := txs[i].Power
		pt := q.in.pts[txs[i].Sender]
		sc.mass[g] += p
		sc.cenX[g] += p * pt.X
		sc.cenY[g] += p * pt.Y
		if p > sc.pmax[g] {
			sc.pmax[g] = p
		}
		sc.fill[t]++
	}
	sc.active[l] = leaves
	ofs := int32(0)
	for _, t := range leaves {
		sc.start[t] = ofs
		ofs += sc.fill[t]
		sc.fill[t] = 0
	}
	for i := range txs {
		t := sc.leafOf[txs[i].Sender]
		sc.order[sc.start[t]+sc.fill[t]] = int32(i)
		sc.fill[t]++
	}
	for lvl := l; lvl > 0; lvl-- {
		dim := int32(1) << lvl
		childOff := q.levelOff[lvl]
		parentOff := q.levelOff[lvl-1]
		plist := sc.active[lvl-1]
		for _, t := range sc.active[lvl] {
			x, y := t%dim, t/dim
			pl := (y>>1)*(dim>>1) + x>>1
			pg := parentOff + pl
			g := childOff + t
			if sc.stamp[pg] != ep {
				sc.stamp[pg] = ep
				sc.mass[pg], sc.cenX[pg], sc.cenY[pg], sc.pmax[pg] = 0, 0, 0, 0
				plist = append(plist, pl)
			}
			sc.mass[pg] += sc.mass[g]
			sc.cenX[pg] += sc.cenX[g]
			sc.cenY[pg] += sc.cenY[g]
			if sc.pmax[g] > sc.pmax[pg] {
				sc.pmax[pg] = sc.pmax[g]
			}
		}
		sc.active[lvl-1] = plist
	}
	for lvl := 0; lvl <= l; lvl++ {
		off := q.levelOff[lvl]
		for _, t := range sc.active[lvl] {
			g := off + t
			if m := sc.mass[g]; m > 0 {
				sc.cenX[g] /= m
				sc.cenY[g] /= m
			}
		}
	}
}

func (sc *legacyScratch) resolve(v int, txs []Tx) (best int, bestRP, total float64, saturated bool) {
	q := sc.q
	in := q.in
	alpha := in.params.Alpha
	pv := in.pts[v]
	best = -1
	ep := sc.epoch
	l := q.levels
	var stack [quadStackCap]int64
	if sc.stamp[0] != ep {
		return best, 0, 0, false
	}
	stack[0] = 0
	top := 1
	for top > 0 {
		top--
		e := stack[top]
		lvl := int(e >> 32)
		t := int32(e)
		g := q.levelOff[lvl] + t
		dx := pv.X - sc.cenX[g]
		dy := pv.Y - sc.cenY[g]
		d2 := dx*dx + dy*dy
		if d2 >= q.openRad2[lvl] {
			gc := 1 / PowAlphaSq(d2, alpha)
			if sc.pmax[g]*gc*q.refineFac <= bestRP {
				total += sc.mass[g] * gc
				continue
			}
		}
		if lvl == l {
			for _, oi := range sc.order[sc.start[t] : sc.start[t]+sc.fill[t]] {
				tr := &txs[oi]
				sd2 := pv.DistSq(in.pts[tr.Sender])
				if sd2 == 0 {
					return -1, 0, 0, true
				}
				rp := tr.Power / PowAlphaSq(sd2, alpha)
				total += rp
				if rp > bestRP {
					bestRP = rp
					best = int(oi)
				}
			}
			continue
		}
		dim := int32(1) << lvl
		x := t % dim
		y := t / dim
		cdim := dim << 1
		clvl := int64(lvl+1) << 32
		coff := q.levelOff[lvl+1]
		cside := q.side[lvl+1]
		var nx, ny int32
		if pv.X >= q.ox+float64(2*x+1)*cside {
			nx = 1
		}
		if pv.Y >= q.oy+float64(2*y+1)*cside {
			ny = 1
		}
		cx := 2*x + nx
		cy := 2*y + ny
		for _, c := range [4]int32{(cy^1)*cdim + (cx ^ 1), (cy^1)*cdim + cx, cy*cdim + (cx ^ 1), cy*cdim + cx} {
			if sc.stamp[coff+c] == ep && sc.mass[coff+c] != 0 {
				stack[top] = clvl | int64(c)
				top++
			}
		}
	}
	return best, bestRP, total, false
}

func (sc *legacyScratch) linkSINR(txs []Tx, l Link, pu float64) float64 {
	q := sc.q
	in := q.in
	alpha := in.params.Alpha
	u, v := l.From, l.To
	pv := in.pts[v]
	signal := pu / PowAlphaSq(pv.DistSq(in.pts[u]), alpha)
	if signal == 0 {
		return 0
	}
	ep := sc.epoch
	lv := q.levels
	ul := sc.leafOf[u]
	ux, uy := ul%q.leafDim, ul/q.leafDim
	interference := 0.0
	if sc.stamp[0] != ep {
		return signal / in.params.Noise
	}
	var stack [quadStackCap]int64
	stack[0] = 0
	top := 1
	for top > 0 {
		top--
		e := stack[top]
		lvl := int(e >> 32)
		t := int32(e)
		g := q.levelOff[lvl] + t
		dx := pv.X - sc.cenX[g]
		dy := pv.Y - sc.cenY[g]
		d2 := dx*dx + dy*dy
		if d2 >= q.openRad2[lvl] {
			m := sc.mass[g]
			shift := uint(lv - lvl)
			dim := int32(1) << lvl
			if t%dim == ux>>shift && t/dim == uy>>shift {
				m -= pu
			}
			if m <= 0 {
				continue
			}
			interference += m / PowAlphaSq(d2, alpha)
			continue
		}
		if lvl == lv {
			for _, oi := range sc.order[sc.start[t] : sc.start[t]+sc.fill[t]] {
				tr := &txs[oi]
				if tr.Sender == u {
					continue
				}
				interference += tr.Power / PowAlphaSq(pv.DistSq(in.pts[tr.Sender]), alpha)
			}
			continue
		}
		dim := int32(1) << lvl
		cx := t % dim * 2
		cy := t / dim * 2
		cdim := dim << 1
		clvl := int64(lvl+1) << 32
		coff := q.levelOff[lvl+1]
		for _, c := range [4]int32{(cy+1)*cdim + cx + 1, (cy+1)*cdim + cx, cy*cdim + cx + 1, cy*cdim + cx} {
			if sc.stamp[coff+c] == ep && sc.mass[coff+c] != 0 {
				stack[top] = clvl | int64(c)
				top++
			}
		}
	}
	return signal / (in.params.Noise + interference)
}

// driftTxSet builds a distinct-sender set covering about half the nodes.
func driftTxSet(rng *rand.Rand, n, m int) []Tx {
	perm := rng.Perm(n)
	txs := make([]Tx, 0, m)
	for _, s := range perm[:m] {
		txs = append(txs, Tx{Sender: s, Power: 1 + rng.Float64()*99})
	}
	return txs
}

func driftFloatName(f float64) string {
	return strings.ReplaceAll(strconv.FormatFloat(f, 'g', -1, 64), ".", "p")
}

// TestMortonLayoutDriftGate pins the Morton-ordered kernel bit-identical
// to the transcribed row-major engine across the full generator matrix ×
// α × ε: every pyramid aggregate at every (level, x, y), every Resolve
// tuple, and every LinkSINR value must be EXACTLY equal — the layout is a
// relabeling, and any ulp of drift here is a broken fold or walk order.
// α = 2, 3, 4 additionally cross the specialized power kernel against the
// generic PowAlphaSq the legacy code used.
func TestMortonLayoutDriftGate(t *testing.T) {
	epsSweep := []float64{0.1, 0.5, 2.5}
	for _, spec := range workload.Matrix() {
		for _, alpha := range []float64{2, 2.5, 3, 4} {
			spec, alpha := spec, alpha
			t.Run(spec.Name+"/"+driftFloatName(alpha), func(t *testing.T) {
				const n = 80
				rng := rand.New(rand.NewSource(917))
				pts := spec.Gen(rng, n)
				p := DefaultParams()
				p.Alpha = alpha
				in, err := NewInstance(pts, p)
				if err != nil {
					t.Fatal(err)
				}
				for _, eps := range epsSweep {
					q, err := in.QuadTree(eps)
					if err != nil {
						t.Fatal(err)
					}
					sc := q.NewScratch()
					leg := newLegacyScratch(q)
					txs := driftTxSet(rng, n, n/2)
					sc.Accumulate(txs)
					leg.accumulate(txs)

					// Pyramid aggregates: node (lvl, x, y) lives at
					// levelOff+y·dim+x in the legacy layout and at
					// levelOff+Morton(x,y) in the live one.
					for lvl := 0; lvl <= q.levels; lvl++ {
						dim := int32(1) << lvl
						off := q.levelOff[lvl]
						for y := int32(0); y < dim; y++ {
							for x := int32(0); x < dim; x++ {
								lg := off + y*dim + x
								ng := off + MortonEncode(x, y)
								lon := leg.stamp[lg] == leg.epoch
								non := sc.stamp[ng] == sc.epoch
								if lon != non {
									t.Fatalf("eps %v level %d node (%d,%d): occupancy legacy %v live %v",
										eps, lvl, x, y, lon, non)
								}
								if !lon {
									continue
								}
								if leg.mass[lg] != sc.node[ng].mass || leg.cenX[lg] != sc.node[ng].cenX ||
									leg.cenY[lg] != sc.node[ng].cenY || leg.pmax[lg] != sc.node[ng].pmax {
									t.Fatalf("eps %v level %d node (%d,%d): aggregates legacy (%v,%v,%v,%v) live (%v,%v,%v,%v)",
										eps, lvl, x, y,
										leg.mass[lg], leg.cenX[lg], leg.cenY[lg], leg.pmax[lg],
										sc.node[ng].mass, sc.node[ng].cenX, sc.node[ng].cenY, sc.node[ng].pmax)
								}
							}
						}
					}

					// Resolve at every listener: identical tuples, bit for bit.
					for v := 0; v < n; v++ {
						nb, nrp, nt, ns := sc.Resolve(v)
						lb, lrp, lt, ls := leg.resolve(v, txs)
						if nb != lb || nrp != lrp || nt != lt || ns != ls {
							t.Fatalf("eps %v listener %d: Resolve live (%d,%v,%v,%v) legacy (%d,%v,%v,%v)",
								eps, v, nb, nrp, nt, ns, lb, lrp, lt, ls)
						}
					}

					// LinkSINR for every sender against rotating receivers.
					for k, tx := range txs {
						to := (tx.Sender + 1 + k) % n
						if to == tx.Sender {
							to = (to + 1) % n
						}
						l := Link{From: tx.Sender, To: to}
						if got, want := sc.LinkSINR(txs, l, tx.Power), leg.linkSINR(txs, l, tx.Power); got != want {
							t.Fatalf("eps %v LinkSINR(%v): live %v legacy %v", eps, l, got, want)
						}
					}
				}
			})
		}
	}
}
