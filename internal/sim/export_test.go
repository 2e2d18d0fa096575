package sim

// Test hooks for the external test package (hold_diff_test.go), which
// drives the engine through internal/core and internal/schedule and so
// cannot live in package sim.

// StepEveryNode returns c with held actions off: every live node is
// stepped in every slot, and a step on an empty inbox that returns
// anything but its declared action panics.
func StepEveryNode(c Config) Config {
	c.noHold = true
	return c
}

// FanEveryStage returns c with every stage of a pooled engine fanned out,
// so that the step stage runs inside the pool's workers.
func FanEveryStage(c Config) Config {
	c.forceFan = fanAlways
	return c
}

// WatchInboxes returns c with f called after every slot, with the slot's
// index and every node's inbox as the next slot will read it.
func WatchInboxes(c Config, f func(slot int, inboxes [][]Delivery)) Config {
	c.afterSlot = func(e *Engine) { f(e.slot-1, e.inboxes) }
	return c
}

// GateBy returns c with every ranged slot gating its listeners, held ones
// included, on the cell grid (grid) or by comparing each with every
// sender, whatever the rule would choose.
func GateBy(c Config, grid bool) Config {
	c.forceGate = func(int, int, bool) bool { return grid }
	return c
}

// PruneBy returns c with every exact slot running the decode pre-pass
// (on) or none of them, whatever the rule would choose.
func PruneBy(c Config, on bool) Config {
	c.forcePrune = func(bool) bool { return on }
	return c
}

// WatchPruned returns c with f called after every slot that ran the
// decode pre-pass, with the farthest ring its walks could read, after any
// hook c already watches its slots with.
func WatchPruned(c Config, f func(rings int)) Config {
	prev := c.afterSlot
	c.afterSlot = func(e *Engine) {
		if e.pruned {
			f(e.grid.rings)
		}
		if prev != nil {
			prev(e)
		}
	}
	return c
}

// Listen returns the listen action. Production protocols spell out the
// listen action with its Then and Hold.
func Listen() Action { return Action{Kind: ActionListen} }

// Run executes exactly n slots.
func (e *Engine) Run(n int) {
	for i := 0; i < n; i++ {
		e.Step()
	}
}
