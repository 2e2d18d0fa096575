package churn

import (
	"math"
	"slices"

	"sinrconn/internal/geom"
)

// Damper implements spatial flap damping: when a region accumulates K
// failures within a sliding Window, it is quarantined for Cooldown time
// units. Regions are Radius-sized grid cells keyed by floor(p/Radius); a
// failure is charged to its own cell AND its eight neighbors, so a flapping
// disc straddling a cell boundary is still seen as one region. Quantization
// errs toward damping slightly more area than the literal failure disc —
// the conservative direction for stability.
//
// The damper is a pure state machine over explicit timestamps (no wall
// clock), so damped verdicts replay deterministically with the trace.
type Damper struct {
	k        int
	window   float64
	cooldown float64
	radius   float64
	cells    map[[2]int]*dampCell
	// all lists the cells in the order they were first charged, so that
	// Muted visits them without ranging over the map.
	all []*dampCell
	// mask is Muted's scratch: one flag per cell of the quarantined
	// cells' bounding box.
	mask []bool
	// until is the latest dampedUntil of any cell: no region is
	// quarantined from then on.
	until float64
}

type dampCell struct {
	key         [2]int
	times       []float64 // failure timestamps, pruned to the window
	dampedUntil float64
}

// NewDamper builds a damper that quarantines a radius-sized region once
// it records k failures within window, for cooldown time units. k and
// radius must be positive.
func NewDamper(k int, window, cooldown, radius float64) *Damper {
	return &Damper{
		k:        k,
		window:   window,
		cooldown: cooldown,
		radius:   radius,
		cells:    make(map[[2]int]*dampCell),
	}
}

func (d *Damper) key(p geom.Point) [2]int {
	return [2]int{int(math.Floor(p.X / d.radius)), int(math.Floor(p.Y / d.radius))}
}

// Record charges a failure at p at the given time to p's region, possibly
// tripping the quarantine.
func (d *Damper) Record(p geom.Point, now float64) {
	k := d.key(p)
	for dx := -1; dx <= 1; dx++ {
		for dy := -1; dy <= 1; dy++ {
			ck := [2]int{k[0] + dx, k[1] + dy}
			c := d.cells[ck]
			if c == nil {
				c = &dampCell{key: ck}
				d.cells[ck] = c
				d.all = append(d.all, c)
			}
			c.times = append(c.times, now)
			d.prune(c, now)
			if len(c.times) >= d.k {
				if until := now + d.cooldown; until > c.dampedUntil {
					c.dampedUntil = until
					d.until = max(d.until, until)
				}
				c.times = c.times[:0] // quarantine resets the counter
			}
		}
	}
}

func (d *Damper) prune(c *dampCell, now float64) {
	cut := 0
	for cut < len(c.times) && c.times[cut] < now-d.window {
		cut++
	}
	if cut > 0 {
		c.times = append(c.times[:0], c.times[cut:]...)
	}
}

// Damped reports whether p's region is quarantined at the given time.
func (d *Damper) Damped(p geom.Point, now float64) bool {
	c := d.cells[d.key(p)]
	return c != nil && now < c.dampedUntil
}

// Quiet reports whether no region is quarantined at the given time, so
// that Damped is false for every point then. It costs one comparison,
// which lets a caller skip a scan of its points while nothing is damped.
func (d *Damper) Quiet(now float64) bool {
	return !(now < d.until)
}

// Muted returns the members, indices into pts, whose region is
// quarantined at the given time, in members order: the members for which
// Damped holds. It marks the quarantined cells once, in a mask over their
// bounding box, and then reads each member's cell from the mask instead of
// hashing it into the cell map. When that box has more cells than four per
// member, it looks each member up as Damped does.
func (d *Damper) Muted(now float64, pts []geom.Point, members []int) []int {
	if d.Quiet(now) {
		return nil
	}
	lo, hi := [2]int{math.MaxInt, math.MaxInt}, [2]int{math.MinInt, math.MinInt}
	for _, c := range d.all {
		if k := c.key; now < c.dampedUntil {
			lo = [2]int{min(lo[0], k[0]), min(lo[1], k[1])}
			hi = [2]int{max(hi[0], k[0]), max(hi[1], k[1])}
		}
	}
	var out []int
	// A span past the int range wraps to w or h ≤ 0.
	w, h, most := hi[0]-lo[0]+1, hi[1]-lo[1]+1, 4*len(members)
	if !(w > 0 && h > 0 && w <= most && h <= most && w*h <= most) {
		for _, v := range members {
			if d.Damped(pts[v], now) {
				out = append(out, v)
			}
		}
		return out
	}
	d.mask = slices.Grow(d.mask[:0], w*h)[:w*h]
	clear(d.mask)
	for _, c := range d.all {
		if k := c.key; now < c.dampedUntil {
			d.mask[(k[1]-lo[1])*w+k[0]-lo[0]] = true
		}
	}
	for _, v := range members {
		k := d.key(pts[v])
		x, y := k[0]-lo[0], k[1]-lo[1]
		if x >= 0 && x < w && y >= 0 && y < h && d.mask[y*w+x] {
			out = append(out, v)
		}
	}
	return out
}
