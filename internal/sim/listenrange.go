package sim

import (
	"math"
	"math/bits"

	"sinrconn/internal/geom"
)

// cellSlack widens the cell side beyond the listen range by this relative
// margin, so that float rounding in the cell coordinates can never place a
// sender closer than the range outside the 3×3 cells around its listener.
const cellSlack = 1.0 / (1 << 16)

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
// listener that has no sender closer than r, found through a grid of cells
// the first such slot after this call lays over the live nodes. Which
// listeners the gate drops never changes an inbox or a counter, only how
// long the slot takes.
func (e *Engine) SetListenRange(r float64) {
	if !(r > 0) {
		r = 0
	}
	e.listenRange = r
	// The grid is built lazily: a run canceled before its first slot (a
	// warm-up, say) never pays for it.
	e.gate.built = false
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
// nodes, once per range, so a listener finds every sender closer than r
// in the 3×3 cells around its own; a listener whose block holds no sender
// of the slot is dropped after two loads.
//
// Cell coordinates are fl(fl(x − ox)·inv) with inv = fl(1/side), side =
// r·(1 + cellSlack), and ox the smallest X of the live nodes (Y likewise).
// Each of the four roundings is relative, so a computed coordinate
// c ≤ maxCellCoord is within 4u·c ≤ 2⁻²¹ of the true (x − ox)/side
// (u = 2⁻⁵³). A sender with Dist < r is less than r(1 + 2⁻⁵¹) away on
// each axis (math.Hypot errs by less than an ulp, the rounded difference
// it is given by at most u), so its true coordinates differ from the
// listener's by less than (1 + 2⁻⁵¹)/(1 + 2⁻¹⁶) and the computed ones by
// less than that plus 2⁻²⁰, which is below 1: their floors are at most
// one cell apart. When the live nodes span more than maxCellCoord cells
// (a chain with Δ = 2⁴⁰, say), ok is false and every listener is compared
// with every sender.
//
// The grid covers the nodes live at the range's first gated slot. Nodes
// only ever leave the live set, so it covers every later sender and
// listener of the range too. The buffers are sized at the engine's first
// build, for the live count then, which no later build exceeds, so the
// slot loop allocates nothing.
type listenGate struct {
	built  bool    // the grid matches the current range
	ok     bool    // every cell coordinate stays ≤ maxCellCoord
	epoch  uint32  // the current slot's stamp
	cellOf []int32 // cell of each live node, by node index
	cells  []gateCell
	tab    []int32 // build only: cell id + 1 by hashed key, 0 if empty
	used   []int32 // cells holding a sender of the current slot
	pts    []geom.Point
}

// build lays the grid for range r over the live nodes at points pts.
func (g *listenGate) build(pts []geom.Point, live []int32, r float64) {
	g.built, g.epoch = true, 0
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, v := range live {
		p := pts[v]
		minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
		minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
	}
	inv := 1 / (r * (1 + cellSlack))
	// +Inf (a range below the smallest positive float's reciprocal) fails
	// the comparison too; a zero span times +Inf is NaN.
	if g.ok = math.Max(maxX-minX, maxY-minY)*inv <= maxCellCoord; !g.ok {
		return
	}
	size := 16
	for size < 2*len(live) {
		size <<= 1
	}
	if g.cellOf == nil {
		g.cellOf = make([]int32, len(pts))
		g.cells = make([]gateCell, 0, len(live))
		g.tab = make([]int32, size)
		g.used = make([]int32, 0, len(live))
		g.pts = make([]geom.Point, len(live))
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
	for _, v := range live {
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

// gateListeners drops from lis, which stays ascending, every listener
// with no sender closer than the listen range. Such a listener's
// strongest sender, if it decodes one at all, is out of range, so
// finishDecode would discard the reception without counting it.
//
//sinr:hotpath
func (e *Engine) gateListeners() {
	pts, g, r := e.inst.Points(), &e.gate, e.listenRange
	// A range can outlast 2³² gated slots only in theory; a fresh grid
	// restarts the stamps then.
	if !g.built || g.epoch == math.MaxUint32 {
		g.build(pts, e.live, r)
	}
	kept := 0
	if !g.ok {
		for _, v := range e.lis {
			for _, t := range e.txs {
				if pts[t.Sender].Dist(pts[v]) < r {
					e.lis[kept] = v
					kept++
					break
				}
			}
		}
		e.lis = e.lis[:kept]
		return
	}
	g.epoch++
	ep, cells := g.epoch, g.cells
	// Bucket the senders by cell: count, turn the counts into ranges of
	// pts and mark each sender cell's block hot, then fill.
	g.used = g.used[:0]
	for _, t := range e.txs {
		id := g.cellOf[t.Sender]
		c := &cells[id]
		if c.seen != ep {
			c.seen, c.end = ep, 0
			g.used = append(g.used, id)
		}
		c.end++
	}
	run := int32(0)
	for _, id := range g.used {
		c := &cells[id]
		c.start, c.end, run = run, run, run+c.end
		for _, nb := range c.nbr[:c.nn] {
			cells[nb].hot = ep
		}
	}
	for _, t := range e.txs {
		c := &cells[g.cellOf[t.Sender]]
		g.pts[c.end] = pts[t.Sender]
		c.end++
	}
	for _, v := range e.lis {
		c := &cells[g.cellOf[v]]
		if c.hot != ep || !g.hears(c, pts[v], r) {
			continue
		}
		e.lis[kept] = v
		kept++
	}
	e.lis = e.lis[:kept]
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
			if q.Dist(p) < r {
				return true
			}
		}
	}
	return false
}
