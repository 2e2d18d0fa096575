package sim

import (
	"math"
	"math/bits"

	"sinrconn/internal/geom"
	"sinrconn/internal/sinr"
)

// cellSlack widens the cell side beyond the listen range by this relative
// margin, so that float rounding in the cell coordinates can never place a
// sender closer than the range outside the 3×3 cells around its listener.
const cellSlack = 1.0 / (1 << 16)

// bandSlack is the relative half-width δ of the guard band [r²(1 − δ),
// r²(1 + δ)] around the squared range, outside which the gate decides
// Dist < r from geom.Point.DistSq alone (listenGate.inRange). Both
// functions start from the same rounded differences dx and dy; let d be
// the exact √(dx² + dy²). DistSq rounds two products and a sum, so it
// lies within (1 ± u)² of d² (u = 2⁻⁵³). math.Hypot computes
// p·√(1 + (q/p)²) with p ≥ q; its quotient, square, sum, root and product
// each round once, and (q/p)² ≤ 1 halves the first two errors inside the
// root, so it lies within 4u of d. The bounds r²(1 ∓ δ) are computed
// from r·r with two roundings, (1 ∓ δ) being exact. So a squared distance
// below the lower bound puts Hypot below r(1 − δ/2 + 8u) < r, and one
// above the upper bound puts it above r(1 + δ/2 − 8u) > r: with δ = 2⁻⁴⁰
// either verdict holds with a margin of 2⁹ over every rounding. Inside the
// band the gate calls Dist. The band is used only while r² is a normal
// float far from overflow (band), where no product underflows
// into a relative error the argument does not cover.
const bandSlack = 1.0 / (1 << 40)

// maxCellCoord bounds the cell coordinates the gate uses. Past it the
// rounding of the coordinates could outgrow cellSlack, and the packed keys
// their 32-bit halves, so the gate compares every listener with every
// sender instead.
const maxCellCoord = 1 << 30

// SetListenRange sets the engine's listen range r. From the next slot on,
// a listener keeps a delivery only if its sender is closer than r, that is
// Instance.Dist(sender, listener) < r. A reception whose strongest sender
// is at distance r or more counts nowhere in Stats: not as a delivery, a
// collision or a drop. r ≤ 0 (or NaN) removes the range again, so every
// delivery is kept.
//
// A protocol sets a range when it ignores every message from a sender that
// far away, as Init and Join do with broadcasts outside the round's length
// class. The engine then decodes only the listeners that can hear an
// in-range sender: before decode, every slot with a sender drops each
// listener that has no sender closer than r, by comparing it with every
// sender while the range's slots have had few enough, and otherwise
// through a grid of cells laid over the live and held nodes once per
// range (readyGate). Which listeners the gate drops never changes
// an inbox or a counter, only how long the slot takes.
func (e *Engine) SetListenRange(r float64) {
	if !(r > 0) {
		r = 0
	}
	e.listenRange = r
	e.gate.lo, e.gate.hi = band(r)
	// The grid is built lazily: a run canceled before its first slot (a
	// warm-up, say) never pays for it, and one whose slots have few
	// senders rarely does (gateScanBudget).
	e.gate.built, e.gate.scanned = false, 0
}

// gateCell is one occupied cell of the listen gate's grid. nbr lists the
// occupied cells of the 3×3 block around it, its own first: a sender
// closer than the range most likely shares a listener's cell. seen and hot
// are slot stamps: the cell holds senders of the current slot, at
// listenGate.pts[start:end], iff seen equals the gate's epoch, and a
// sender lies in its block iff hot does.
type gateCell struct {
	key        uint64 // packed coordinates, cx<<32 | cy
	nbr        [9]int32
	nn         int32 // occupied cells in nbr
	seen, hot  uint32
	start, end int32
}

// cellOffsets lists the 3×3 cells around a cell as offsets plus one, so
// they stay unsigned, its own cell first.
var cellOffsets = [9][2]uint64{
	{1, 1}, {0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 2}, {2, 0}, {2, 1}, {2, 2},
}

// listenGate finds, per slot, the listeners with a sender closer than the
// listen range r. It lays square cells of side just above r over the live
// and held nodes, once per range, so a listener finds every sender closer
// than r in the 3×3 cells around its own; a listener whose block holds no
// sender of the slot is dropped after two loads.
//
// Cell coordinates are fl(fl(x − ox)·inv) with inv = fl(1/side), side =
// r·(1 + cellSlack), and ox the smallest X of the covered nodes (Y likewise).
// Each of the four roundings is relative, so a computed coordinate
// c ≤ maxCellCoord is within 4u·c ≤ 2⁻²¹ of the true (x − ox)/side
// (u = 2⁻⁵³). A sender with Dist < r is less than r(1 + 2⁻⁵¹) away on
// each axis (math.Hypot errs by less than an ulp, the rounded difference
// it is given by at most u), so its true coordinates differ from the
// listener's by less than (1 + 2⁻⁵¹)/(1 + 2⁻¹⁶) and the computed ones by
// less than that plus 2⁻²⁰, which is below 1: their floors are at most
// one cell apart. When the covered nodes span more than maxCellCoord cells
// (a chain with Δ = 2⁴⁰, say), ok is false and every listener is compared
// with every sender.
//
// The grid covers the nodes live or held at the first slot of the range
// that gates on it. Nodes only ever leave those sets, so it covers every
// later sender and listener of the range too. The buffers are sized at the
// engine's first build, for the node count then, which no later build
// exceeds, so the slot loop allocates nothing.
type listenGate struct {
	built bool // the grid matches the current range
	// indexed: members and first match the grid (index).
	indexed bool
	ok      bool   // every cell coordinate stays ≤ maxCellCoord
	grid    bool   // the current slot gates on the grid (readyGate)
	epoch   uint32 // the current slot's stamp
	// scanned counts the pair tests the range's slots spent comparing
	// listeners with senders (readyGate).
	scanned int
	cellOf  []int32 // cell of each covered node, by node index
	cells   []gateCell
	// members lists the covered nodes cell by cell, cell id's at
	// members[first[id]:first[id+1]], once indexed.
	members, first []int32
	tab            []int32 // build only: cell id + 1 by hashed key, 0 if empty
	used           []int32 // cells holding a sender of the current slot
	hotCells       []int32 // cells with a sender of the current slot in their block
	pts            []geom.Point
	// lo and hi bound the guard band of the current range (bandSlack),
	// set with it: a squared distance below lo is in range, one above hi
	// is not.
	lo, hi float64
}

// gateScanBudget is how many listener–sender pair tests per node the grid
// would cover a range may spend comparing listeners with senders before
// its slots gate on the cell grid instead. Laying the grid costs about as
// much as six such tests per node: at n = 1024 on a 2-vCPU Xeon VM, one
// build took 36–49 µs and comparing one sender with all 1024 nodes
// 7.6–8.9 µs. So a range whose slots have few senders rarely builds it: a
// one-joiner Join's ladder round, whose joiner is compared with about n
// held members per broadcast, builds it only if the joiner broadcasts in
// about seven of the round's data slots. A range that would spend more on
// comparisons than on the grid builds it once and uses it in every later
// slot, as a range whose first slot has many senders does at once.
const gateScanBudget = 6

// readyGate chooses, for the current slot, which has a sender, between
// comparing each of its candidate listeners, live and held, with every
// sender and the cell grid, from those counts and the range's comparisons
// so far; with the grid, it builds it if the range has none yet and
// buckets the slot's senders. Either way the gate keeps the same
// listeners.
//
//sinr:hotpath
func (e *Engine) readyGate(listeners int) {
	g := &e.gate
	pairs := len(e.txs) * listeners
	nodes := len(e.live) + len(e.held.holding) + len(e.held.nodes)
	grid := g.built || g.scanned+pairs > gateScanBudget*nodes
	if e.cfg.forceGate != nil {
		grid = e.cfg.forceGate(len(e.txs), listeners, grid)
	}
	// A range can outlast 2³² gated slots only in theory; a fresh grid
	// restarts the stamps then.
	if grid && (!g.built || g.epoch == math.MaxUint32) {
		g.build(e.inst.Points(), e.listenRange, e.live, e.held.holding, e.held.nodes)
	}
	if g.grid = grid && g.ok; g.grid {
		g.bucket(e.inst.Points(), e.txs, e.held.listen[e.slot&1] > 0)
	} else {
		g.scanned += pairs
	}
}

// build lays the grid for range r over the nodes of sets, at points pts.
func (g *listenGate) build(pts []geom.Point, r float64, sets ...[]int32) {
	g.built, g.indexed, g.epoch = true, false, 0
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	nodes := 0
	for _, set := range sets {
		nodes += len(set)
		for _, v := range set {
			p := pts[v]
			minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
			minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
		}
	}
	inv := 1 / (r * (1 + cellSlack))
	// +Inf (a range below the smallest positive float's reciprocal) fails
	// the comparison too; a zero span times +Inf is NaN.
	if g.ok = math.Max(maxX-minX, maxY-minY)*inv <= maxCellCoord; !g.ok {
		return
	}
	size := 16
	for size < 2*nodes {
		size <<= 1
	}
	if g.cellOf == nil {
		g.cellOf = make([]int32, len(pts))
		g.cells = make([]gateCell, 0, nodes)
		g.members = make([]int32, nodes)
		g.first = make([]int32, nodes+1)
		g.tab = make([]int32, size)
		g.used = make([]int32, 0, nodes)
		g.hotCells = make([]int32, 0, nodes)
		g.pts = make([]geom.Point, nodes)
	}
	tab := g.tab[:size]
	clear(tab)
	shift := uint(64 - bits.Len(uint(size-1)))
	// find returns the table slot holding key, or the empty one where it
	// would go.
	find := func(key uint64) int {
		h := int((key * 0x9E3779B97F4A7C15) >> shift)
		for tab[h] != 0 && g.cells[tab[h]-1].key != key {
			h = (h + 1) & (size - 1)
		}
		return h
	}
	g.cells = g.cells[:0]
	for _, set := range sets {
		for _, v := range set {
			// Shifted by one, so every neighbour's coordinates are
			// non-negative as well.
			cx, cy := uint64((pts[v].X-minX)*inv)+1, uint64((pts[v].Y-minY)*inv)+1
			h := find(cx<<32 | cy)
			if tab[h] == 0 {
				g.cells = append(g.cells, gateCell{key: cx<<32 | cy})
				tab[h] = int32(len(g.cells))
			}
			g.cellOf[v] = tab[h] - 1
		}
	}
	for id := range g.cells {
		c := &g.cells[id]
		cx, cy := c.key>>32, c.key&(1<<32-1)
		for _, o := range cellOffsets {
			if nb := tab[find((cx+o[0]-1)<<32|(cy+o[1]-1))]; nb != 0 {
				c.nbr[c.nn] = nb - 1
				c.nn++
			}
		}
	}
}

// index lists the members of every cell, the nodes of sets, which the grid
// covers. Only the held listeners' search needs the lists, so the first
// slot of the grid that searches them lays them.
func (g *listenGate) index(sets ...[]int32) {
	g.indexed = true
	first := g.first[:len(g.cells)+1]
	clear(first)
	for _, set := range sets {
		for _, v := range set {
			first[g.cellOf[v]+1]++
		}
	}
	for id := range g.cells {
		first[id+1] += first[id]
	}
	for _, set := range sets {
		for _, v := range set {
			id := g.cellOf[v]
			g.members[first[id]] = v
			first[id]++
		}
	}
	copy(first[1:], first[:len(g.cells)])
	first[0] = 0
}

// bucket files the senders txs by cell for the current slot: it counts
// them, turns the counts into ranges of pts, marks each sender cell's
// block hot, listing the hot cells when list is set, then fills pts.
//
//sinr:hotpath
func (g *listenGate) bucket(pts []geom.Point, txs []sinr.Tx, list bool) {
	g.epoch++
	ep, cells := g.epoch, g.cells
	g.used = g.used[:0]
	for _, t := range txs {
		id := g.cellOf[t.Sender]
		c := &cells[id]
		if c.seen != ep {
			c.seen, c.end = ep, 0
			g.used = append(g.used, id)
		}
		c.end++
	}
	run := int32(0)
	g.hotCells = g.hotCells[:0]
	for _, id := range g.used {
		c := &cells[id]
		c.start, c.end, run = run, run, run+c.end
		for _, nb := range c.nbr[:c.nn] {
			if list && cells[nb].hot != ep {
				g.hotCells = append(g.hotCells, nb)
			}
			cells[nb].hot = ep
		}
	}
	for _, t := range txs {
		c := &cells[g.cellOf[t.Sender]]
		g.pts[c.end] = pts[t.Sender]
		c.end++
	}
}

// gateListeners drops from lis, which stays ascending, every listener
// with no sender closer than the listen range. Such a listener's
// strongest sender, if it decodes one at all, is out of range, so
// finishDecode would discard the reception without counting it.
//
//sinr:hotpath
func (e *Engine) gateListeners() {
	kept := 0
	for _, v := range e.lis {
		if e.heard(v) {
			e.lis[kept] = v
			kept++
		}
	}
	e.lis = e.lis[:kept]
}

// heard reports whether a sender of the current slot lies closer than the
// listen range to node v, the way readyGate chose: by comparing v with
// every sender, or through the senders bucketed in the 3×3 block of v's
// cell, after two loads when that block holds none.
//
//sinr:hotpath
func (e *Engine) heard(v int32) bool {
	g, p := &e.gate, e.inst.Point(int(v))
	if !g.grid {
		return e.nearSender(p)
	}
	c := &g.cells[g.cellOf[v]]
	return c.hot == g.epoch && g.hears(c, p, e.listenRange)
}

// nearSender reports whether a sender of the current slot lies closer than
// the listen range to the listener at p, comparing it with every sender.
//
//sinr:hotpath
func (e *Engine) nearSender(p geom.Point) bool {
	pts, g := e.inst.Points(), &e.gate
	for _, t := range e.txs {
		if g.inRange(pts[t.Sender], p, e.listenRange) {
			return true
		}
	}
	return false
}

// hears reports whether a sender of the current slot in the block of cell
// c lies closer than r to the listener at p, by the distance
// Instance.Dist computes from the sender.
//
//sinr:hotpath
func (g *listenGate) hears(c *gateCell, p geom.Point, r float64) bool {
	for _, id := range c.nbr[:c.nn] {
		b := &g.cells[id]
		if b.seen != g.epoch {
			continue
		}
		for _, q := range g.pts[b.start:b.end] {
			if g.inRange(q, p, r) {
				return true
			}
		}
	}
	return false
}

// inRange reports whether q.Dist(p) < r, the distance Instance.Dist
// computes from sender q to listener p. Outside the guard band the
// squared distance decides; inside it, Dist itself.
//
//sinr:hotpath
func (g *listenGate) inRange(q, p geom.Point, r float64) bool {
	switch d2 := q.DistSq(p); {
	case d2 < g.lo:
		return true
	case d2 > g.hi:
		return false
	}
	return q.Dist(p) < r
}

// band returns the guard band around r² (bandSlack). Where r² is not a
// normal float well inside the exponent range, it returns [0, +Inf], which
// sends every comparison to Dist.
func band(r float64) (lo, hi float64) {
	if r2 := r * r; r2 >= 0x1p-900 && r2 <= 0x1p900 {
		return r2 * (1 - bandSlack), r2 * (1 + bandSlack)
	}
	return 0, math.Inf(1)
}
