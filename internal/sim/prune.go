package sim

import (
	"math"

	"sinrconn/internal/geom"
	"sinrconn/internal/sinr"
)

// The exact decode's pre-pass. Under β ≥ 1 a listener decodes at most its
// strongest sender, and in a busy slot most listeners fail that test: a
// few nearby senders already interfere enough. So a slot with many senders
// files them into a grid of square cells, and each listener walks the
// cells outward, ring by ring, reading the gains of the senders it passes.
// Once every sender it has not read is provably weaker than the strongest
// it has, that sender is the winner the full sum would pick, and the
// listener is settled without the sum if the winner is addressed elsewhere,
// is out of the listen range, or cannot clear β against the interference
// read so far. Every other listener decodes through the full sum. DESIGN.md
// §3 gives the bounds and their rounding argument.

// pruneMinSenders is the sender count from which an exact slot runs the
// pre-pass. Below it the full sum is cheap, and the walk's square covers
// much of a grid that small. Init + RescheduleMean at n = 4096 read about
// 5% slower with 128 or 192 than with 64 (DESIGN.md §3). Slots just above
// it whose listeners are dense may read a little slower pruned, but the
// benchmark's workloads run few of them, and leaving them to the full sum
// measured no faster end to end (DESIGN.md §3).
const pruneMinSenders = 64

// pruneDensity is the mean number of senders per cell the grid is sized
// for. Two per cell keeps ring 1 (nine cells) at about eighteen senders,
// enough to certify the winner of most listeners with a sender nearby,
// while an empty cell costs only a bounds read. End to end, one per cell
// read about 8% slower and four the same.
const pruneDensity = 2

// pruneRings is the last Chebyshev ring of cells a listener's walk reads.
// Past ring 3 (49 cells, about 100 senders at pruneDensity) a listener
// that is still undecided is usually one that decodes, which needs the
// full sum anyway. Of the listeners Init + RescheduleMean at n = 4096
// settled, 5% settled at ring 0, 51% at ring 1, 32% at ring 2 and 12% at
// ring 3; end to end, a cap of 2 read about 3% slower and 5 the same.
const pruneRings = 3

// pruneReach caps the walk's square at 1/pruneReach of the grid's cells,
// so that a listener the walk cannot settle has read at most about a
// quarter of the senders before it pays the full sum. Without the cap a
// slot of 64 senders (32 cells) walks its whole grid out to ring 3. On
// init-exact-4k's slots, mostly of hundreds of senders, the cap reads the
// same as none.
const pruneReach = 4

// pruneSparse sets when a pruned slot's full sum computes its gains on the
// fly rather than reading the gain table: with fewer than n/pruneSparse
// listeners left in a shard, fewer than one per 8-gain cache line, a table
// row read at their columns fetches about one line per pair, which costs
// more than the path loss. End to end (DESIGN.md §3), reading the senders'
// rows there read about 50% slower than on the fly, and reading each such
// listener's own row about 8% slower. Unpruned slots keep the table: a
// prototype that computed every sparse slot's gains on the fly read
// tvc-exact-1k 4% and 10% slower in two of three pairs.
const pruneSparse = 8

// pruneSkew sets when the grid falls back to the full sum: when one cell
// holds more than 1/pruneSkew of the senders (and more than pruneDensity,
// for the small slots tests force onto the grid), a walk near it would
// read a good part of them for each listener. A chain with exponentially
// growing gaps puts nearly every sender into its first cell, and so does a
// tight cluster.
const pruneSkew = 8

// pruneMaxSenders bounds the slots the grid accepts, so that cell
// coordinates stay below 2²⁴ and their rounding far below pruneCoordSlack.
const pruneMaxSenders = 1 << 24

// pruneCoordSlack, in cells, is subtracted from the distance between a
// listener and the edge of the square its walk has read. It covers the
// rounding of the computed cell coordinates, each within 3·2⁻⁵³ of its
// true value times a coordinate below 2²⁵, so within 2⁻²⁶ of a cell.
const pruneCoordSlack = 1.0 / (1 << 20)

// pruneBoundSlack is the relative margin of the distance and power bounds:
// the squared distance bound is shrunk by it, the received power bound
// grown by it. It covers the roundings of DistSq, of the bound's own
// arithmetic and of the path loss, math.Pow included, each a few ulps.
const pruneBoundSlack = 1.0 / (1 << 20)

// gridTx is one sender of the slot as the grid files it: its point, its
// power and its index in txs.
type gridTx struct {
	x, y, p float64
	k       int32
}

// senderGrid buckets an exact slot's senders into gx×gy square cells over
// their bounding box, cell (cx, cy) holding txs[start[id]:start[id+1]] of
// pts, id = cy·gx + cx, in txs order. A sender's cell coordinates are
// ⌊(x − ox)·inv⌋ and ⌊(y − oy)·inv⌋. Its buffers are sized once, for every
// slot the engine can run (sizePrune), so the slot loop allocates nothing.
type senderGrid struct {
	ox, oy, inv float64
	gx, gy      int
	rings       int // the last ring a walk reads
	// pmax is the slot's largest transmit power: every sender's received
	// power at a distance is at most pmax times the gain there.
	pmax float64
	// sumSlack scales a sum of received powers, taken in any order, down
	// to a lower bound on the full decode's in-order total.
	sumSlack float64
	start    []int32
	cellOf   []int32 // build only: cell of txs[k]
	pts      []gridTx
}

// sizePrune sizes the pre-pass's buffers for every slot the engine can
// run: a slot has at most as many senders and listeners as NewEngine's
// live nodes (len(acc)), since nodes only ever leave the live and held
// sets. An engine none of whose slots runs the pre-pass, like most
// engines of a TVC construction or a churn repair, never sizes them.
func (e *Engine) sizePrune() {
	n := len(e.acc)
	e.grid = senderGrid{
		start:  make([]int32, 4*(n/pruneDensity+1)+2),
		cellOf: make([]int32, n),
		pts:    make([]gridTx, n),
	}
	e.cand = make([]int32, n)
}

// prunes reports whether the current exact slot, which has a sender and a
// listener, runs the pre-pass, and if so files its senders.
//
//sinr:hotpath
func (e *Engine) prunes() bool {
	use := len(e.txs) >= pruneMinSenders
	if e.cfg.forcePrune != nil {
		use = e.cfg.forcePrune(use)
	}
	if !use {
		return false
	}
	if e.cand == nil {
		e.sizePrune()
	}
	return e.grid.bucket(e.inst.Points(), e.txs)
}

// bucket files the senders txs, at points pts, into cells, about
// pruneDensity to a cell. It reports false, and the slot takes the full
// sum, when the senders span no area the cells can split (one point, or
// coordinates past the float range) or when one cell holds more than
// 1/pruneSkew of them.
//
//sinr:hotpath
func (g *senderGrid) bucket(pts []geom.Point, txs []sinr.Tx) bool {
	if len(txs) > pruneMaxSenders {
		return false
	}
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	g.pmax = 0
	for _, t := range txs {
		p := pts[t.Sender]
		minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
		minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
		g.pmax = math.Max(g.pmax, t.Power)
	}
	w, h := maxX-minX, maxY-minY
	k := float64(len(txs)/pruneDensity + 1)
	// The larger side never splits into more than k cells, so the grid
	// holds at most 3k + 1 (DESIGN.md §3).
	side := math.Max(math.Sqrt(w*h/k), math.Max(w, h)/k)
	if !(side > 0 && side <= math.MaxFloat64) {
		return false
	}
	g.ox, g.oy, g.inv = minX, minY, 1/side
	// The same expressions as a sender's coordinates below, so no sender
	// lands past the last cell.
	g.gx, g.gy = int(w*g.inv)+1, int(h*g.inv)+1
	cells := g.gx * g.gy
	start := g.start[:cells+1]
	clear(start)
	for j, t := range txs {
		p := pts[t.Sender]
		id := int32(int((p.Y-minY)*g.inv)*g.gx + int((p.X-minX)*g.inv))
		g.cellOf[j] = id
		start[id+1]++
	}
	most := int32(max(len(txs)/pruneSkew, pruneDensity))
	for id := range cells {
		if start[id+1] > most {
			return false
		}
		start[id+1] += start[id]
	}
	for j, t := range txs {
		id := g.cellOf[j]
		p := pts[t.Sender]
		g.pts[start[id]] = gridTx{x: p.X, y: p.Y, p: t.Power, k: int32(j)}
		start[id]++
	}
	copy(start[1:], start[:cells])
	start[0] = 0
	g.sumSlack = 1 - float64(float64(len(txs)+1)*0x1p-51)
	g.rings = 0
	for g.rings < pruneRings && (2*g.rings+3)*(2*g.rings+3)*pruneReach <= cells {
		g.rings++
	}
	return true
}

// walk holds one listener's pre-pass: the strongest sender read so far
// (best, an index into txs, −1 while none is audible), its received power
// and the sum, in reading order, of every received power read.
type walk struct {
	bestRP, sum float64
	best        int32
}

// read folds the senders s into w for the listener at q. It reports a
// co-located sender, which saturates the listener. The gains are the gain
// table's bit for bit (decodeExact), and of two equally strong senders the
// one first in txs wins, as in the full sum.
//
//sinr:hotpath
func (w *walk) read(s []gridTx, q geom.Point, pl sinr.PathLoss) (saturated bool) {
	for i := range s {
		t := &s[i]
		dx, dy := t.x-q.X, t.y-q.Y
		g := 1 / pl.Sq(float64(dx*dx)+float64(dy*dy))
		if math.IsInf(g, 1) {
			return true
		}
		rp := float64(t.p * g)
		w.sum += rp
		if rp > w.bestRP || rp == w.bestRP && w.best >= 0 && t.k < w.best {
			w.bestRP, w.best = rp, t.k
		}
	}
	return false
}

// settle runs the pre-pass at listener v and reports whether it decided
// v's slot, counting what the full decode would count: a saturated
// channel, or, once the strongest sender is certified, nothing for a
// winner addressed to another node or out of the listen range, and a
// collision for one whose SINR provably stays below β. A listener it does
// not settle takes the full sum.
//
//sinr:hotpath
func (e *Engine) settle(v int32, sh *shard) bool {
	g := &e.grid
	q := e.inst.Point(int(v))
	fx, fy := float64((q.X-g.ox)*g.inv), float64((q.Y-g.oy)*g.inv)
	// A listener more than the walk's reach outside the grid reads no
	// sender; the bound also keeps its coordinates small.
	const reach = pruneRings + 1
	if !(fx > -reach && fx < float64(g.gx+reach) && fy > -reach && fy < float64(g.gy+reach)) {
		return false
	}
	lx, ly := int(math.Floor(fx)), int(math.Floor(fy))
	fracX, fracY := fx-float64(lx), fy-float64(ly)
	w := walk{best: -1}
	certified := false
	for r := 0; r <= g.rings; r++ {
		x0, x1, y0, y1 := lx-r, lx+r, ly-r, ly+r
		// Ring r: its bottom and top rows, then its side columns.
		for _, cy := range [2]int{y0, y1} {
			if cy >= 0 && cy < g.gy {
				a, b := max(x0, 0), min(x1, g.gx-1)
				if a <= b && w.read(g.pts[g.start[cy*g.gx+a]:g.start[cy*g.gx+b+1]], q, e.pl) {
					e.saturated(int(v), sh)
					return true
				}
			}
			if r == 0 {
				break
			}
		}
		for _, cx := range [2]int{x0, x1} {
			if r == 0 || cx < 0 || cx >= g.gx {
				continue
			}
			for cy := max(y0+1, 0); cy <= min(y1-1, g.gy-1); cy++ {
				id := cy*g.gx + cx
				if w.read(g.pts[g.start[id]:g.start[id+1]], q, e.pl) {
					e.saturated(int(v), sh)
					return true
				}
			}
		}
		if w.best < 0 {
			continue
		}
		if !certified {
			// The nearest unread sender lies beyond an edge of the square
			// read so far that has grid cells past it.
			gap := math.Inf(1)
			if x0 > 0 {
				gap = math.Min(gap, fracX+float64(r))
			}
			if x1 < g.gx-1 {
				gap = math.Min(gap, 1-fracX+float64(r))
			}
			if y0 > 0 {
				gap = math.Min(gap, fracY+float64(r))
			}
			if y1 < g.gy-1 {
				gap = math.Min(gap, 1-fracY+float64(r))
			}
			if !(math.IsInf(gap, 1) || w.bestRP > e.unreadBound(gap)) {
				continue
			}
			certified = true
			tx := e.txs[w.best]
			if e.actions[v].Kind == ActionListenAddressed && e.actions[tx.Sender].Msg.To != int(v) {
				return true
			}
			if e.listenRange > 0 && !(e.inst.Dist(tx.Sender, int(v)) < e.listenRange) {
				return true
			}
		}
		if e.drowned(w.bestRP, w.sum) {
			sh.collided++
			return true
		}
	}
	return false
}

// unreadBound bounds the received power of every sender at least gap
// cells, less pruneCoordSlack, from the listener: pmax times the gain at
// that distance, grown by pruneBoundSlack. It is +Inf when the gap leaves
// no distance or the path loss there leaves the normal range.
//
//sinr:hotpath
func (e *Engine) unreadBound(gap float64) float64 {
	d := (gap - pruneCoordSlack) / e.grid.inv
	if !(d > 0) {
		return math.Inf(1)
	}
	d2 := float64(d*d) * (1 - pruneBoundSlack)
	loss := e.pl.Sq(d2)
	if !(loss >= 0x1p-1000) {
		return math.Inf(1)
	}
	return e.grid.pmax / loss * (1 + pruneBoundSlack)
}

// drowned reports whether a listener whose certified winner arrives with
// power bestRP, and which has read senders whose received powers sum to
// sum, provably decodes below β: sum scaled by sumSlack bounds the full
// decode's total from below, and the SINR computed from that bound, with
// the full decode's operations, bounds its SINR from above.
//
//sinr:hotpath
func (e *Engine) drowned(bestRP, sum float64) bool {
	if !(bestRP <= math.MaxFloat64 && sum >= 0x1p-960) {
		return false
	}
	low := float64(sum * e.grid.sumSlack)
	if !(low <= math.MaxFloat64) {
		return false
	}
	den := e.noise + (low - bestRP)
	return den > 0 && bestRP/den < e.beta
}
