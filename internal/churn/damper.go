package churn

import (
	"math"

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
	// until is the latest dampedUntil of any cell: no region is
	// quarantined from then on.
	until float64
}

type dampCell struct {
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
				c = &dampCell{}
				d.cells[ck] = c
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
