package sim

import (
	"math"
	"math/bits"

	"sinrconn/internal/geom"
	"sinrconn/internal/sinr"
)

// listenGateMinWork is the slot work |txs|·|lis| from which a ranged
// engine gates its listeners through the sender cell index before decode.
// Below it, building the index and probing it once per listener costs more
// than decoding the listeners the gate would drop. The gate only moves
// time: the post-decode range check in finishDecode decides every delivery
// and every counter whether or not the gate ran. A var only so tests can
// force the gate on and off.
var listenGateMinWork = 1 << 15

// cellSlack widens the cell side beyond the listen range by this relative
// margin, so that float rounding in the cell coordinates can never place a
// sender closer than the range outside the 3×3 cells around its listener.
const cellSlack = 1.0 / (1 << 16)

// maxCellCoord bounds the cell coordinates the index uses. Past it the
// rounding of the coordinates could outgrow cellSlack, and the packed keys
// their 32-bit halves, so SetListenRange turns the gate off instead.
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
// in-range sender: before decode, a slot with enough work drops every
// listener that has no sender closer than r, found through a per-slot cell
// index of the senders. Which listeners the gate drops never changes an
// inbox or a counter, only how long the slot takes.
func (e *Engine) SetListenRange(r float64) {
	if !(r > 0) {
		e.listenRange = 0
		return
	}
	e.listenRange = r
	// A slot has at most live senders and listeners together, so its work
	// |txs|·|lis| is at most live²/4: under 2·√listenGateMinWork live nodes
	// the gate can never run, and the index is not worth building.
	if live := len(e.live); live*live/4 < listenGateMinWork {
		e.cells.ok = false
		return
	}
	e.cells.reset(e.inst.Points(), r, len(e.live))
}

// cellSlot is one entry of the cell index's open-addressing table: the
// packed coordinates of a cell and the range of its senders' points in
// cellIndex.pts. An entry with end == 0 is empty (a cell in the table holds
// at least one sender).
type cellSlot struct {
	key        uint64
	start, end int32
}

// cellOffsets lists the 3×3 cells around a listener's cell as offsets
// plus one, so they stay unsigned, its own cell first: a sender closer
// than the range most likely shares it.
var cellOffsets = [9][2]uint64{
	{1, 1}, {0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 2}, {2, 0}, {2, 1}, {2, 2},
}

// cellIndex buckets a slot's senders by square cells of side just above
// the listen range r, so a listener finds every sender closer than r in
// the 3×3 cells around its own.
//
// Cell coordinates are fl(fl(x − ox)·inv) with inv = fl(1/side), side =
// r·(1 + cellSlack), and ox the smallest X of the instance (Y likewise).
// Each of the four roundings is relative, so a computed coordinate
// c ≤ maxCellCoord is within 4u·c ≤ 2⁻²¹ of the true (x − ox)/side
// (u = 2⁻⁵³). A sender with Dist < r is less than r(1 + 2⁻⁵¹) away on
// each axis (math.Hypot errs by less than an ulp, the rounded difference
// it is given by at most u), so its true coordinates differ from the
// listener's by less than (1 + 2⁻⁵¹)/(1 + 2⁻¹⁶) and the computed ones by
// less than that plus 2⁻²⁰, which is below 1: their floors are at most
// one cell apart. When the instance spans more than maxCellCoord cells (a
// chain with Δ = 2⁴⁰, say), ok is false and the engine decodes every
// listener.
//
// The table is sized once, when the range is first set, for the engine's
// live node count; per slot it uses the smallest power of two that is at
// least twice the sender count, so a build costs O(|txs|) and allocates
// nothing.
type cellIndex struct {
	r            float64
	ox, oy       float64 // the instance's smallest coordinates
	spanX, spanY float64 // its extent past them
	inv          float64 // 1 / cell side
	ok           bool    // every cell coordinate stays ≤ maxCellCoord
	shift        uint    // 64 − log₂ of the slot's table size
	tab          []cellSlot
	at           []int32      // table entry of txs[k], during build
	pts          []geom.Point // sender points grouped by cell
}

// reset prepares the index for listen range r over points pts, of which at
// most maxSenders transmit in one slot. The first call also finds the
// bounding box, which holds for the engine's life (its instance never
// changes), and allocates the buffers.
func (c *cellIndex) reset(pts []geom.Point, r float64, maxSenders int) {
	if c.tab == nil {
		minX, minY := math.Inf(1), math.Inf(1)
		maxX, maxY := math.Inf(-1), math.Inf(-1)
		for _, p := range pts {
			minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
			minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
		}
		c.ox, c.oy = minX, minY
		c.spanX, c.spanY = maxX-minX, maxY-minY
		size := 16
		for size < 2*maxSenders {
			size <<= 1
		}
		c.tab = make([]cellSlot, size)
		c.at = make([]int32, maxSenders)
		c.pts = make([]geom.Point, maxSenders)
	}
	c.r = r
	c.inv = 1 / (r * (1 + cellSlack))
	// NaN (an empty or single-point instance under an infinite inv) and
	// +Inf fail the comparison too.
	c.ok = math.Max(c.spanX, c.spanY)*c.inv <= maxCellCoord
}

// cell returns the cell coordinates of p, shifted by one so that the
// neighbours of every cell have non-negative coordinates as well.
//sinr:hotpath
func (c *cellIndex) cell(p geom.Point) (cx, cy uint64) {
	return uint64((p.X-c.ox)*c.inv) + 1, uint64((p.Y-c.oy)*c.inv) + 1
}

// find returns the table entry holding key, or the empty entry where it
// would go.
//sinr:hotpath
func (c *cellIndex) find(key uint64) int {
	mask := len(c.tab) - 1
	h := int((key * 0x9E3779B97F4A7C15) >> c.shift)
	for c.tab[h].end != 0 && c.tab[h].key != key {
		h = (h + 1) & mask
	}
	return h
}

// build indexes the senders of one slot: a counting pass over the table,
// a prefix pass that turns counts into ranges, and a fill pass.
//sinr:hotpath
func (c *cellIndex) build(pts []geom.Point, txs []sinr.Tx) {
	size := 16
	for size < 2*len(txs) {
		size <<= 1
	}
	c.tab = c.tab[:size]
	c.shift = uint(64 - bits.Len(uint(size-1)))
	clear(c.tab)
	for k, t := range txs {
		cx, cy := c.cell(pts[t.Sender])
		key := cx<<32 | cy
		h := c.find(key)
		c.tab[h].key = key
		c.tab[h].end++
		c.at[k] = int32(h)
	}
	run := int32(0)
	for h := range c.tab {
		if n := c.tab[h].end; n > 0 {
			c.tab[h].start, c.tab[h].end = run, run
			run += n
		}
	}
	for k, t := range txs {
		s := &c.tab[c.at[k]]
		c.pts[s.end] = pts[t.Sender]
		s.end++
	}
}

// hears reports whether some sender of the indexed slot is closer than r
// to the listener at p, by the distance Instance.Dist computes.
//sinr:hotpath
func (c *cellIndex) hears(p geom.Point) bool {
	cx, cy := c.cell(p)
	for _, o := range cellOffsets {
		s := c.tab[c.find((cx+o[0]-1)<<32|(cy+o[1]-1))]
		for _, q := range c.pts[s.start:s.end] {
			if q.Dist(p) < c.r {
				return true
			}
		}
	}
	return false
}

// gateListeners drops from lis, which stays ascending, every listener
// with no sender closer than the listen range. Such a listener's
// strongest sender, if it decodes one at all, is out of range, so
// finishDecode would discard the reception without counting it.
//sinr:hotpath
func (e *Engine) gateListeners() {
	pts := e.inst.Points()
	c := &e.cells
	c.build(pts, e.txs)
	kept := 0
	for _, v := range e.lis {
		if !c.hears(pts[v]) {
			continue
		}
		e.lis[kept] = v
		kept++
	}
	e.lis = e.lis[:kept]
}
