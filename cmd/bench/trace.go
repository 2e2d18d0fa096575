package main

import (
	"time"

	"sinrconn"
)

// denseSenders is the sender count from which the slot engine folds a far
// slot's interference pyramid in shards across its worker pool
// (shardedAccumMinTxs in internal/sim).
const denseSenders = 2048

// tracer books the time between consecutive slot events to the slot that
// ended it. It sees the engine only through the public WithObserver hook,
// so the first event of every engine run (Slot == 0) also covers the work
// before that slot — building the engine, protocol set-up — and is booked
// to non-slot time instead. Callbacks arrive on the engine's goroutine, one
// run at a time.
type tracer struct {
	last time.Time

	slots, exactSlots, farSlots, denseSlots int
	senders, deliveries                     int

	exactTimed, farTimed int // slots with a booked interval
	exactTime, farTime   time.Duration
}

// start marks the beginning of a traced call.
func (t *tracer) start() { t.last = time.Now() }

// observe is the SlotObserver.
func (t *tracer) observe(e sinrconn.SlotEvent) {
	now := time.Now()
	d := now.Sub(t.last)
	t.last = now
	t.slots++
	t.senders += e.Senders
	t.deliveries += e.Deliveries
	if e.Senders >= denseSenders {
		t.denseSlots++
	}
	if e.Far {
		t.farSlots++
	} else {
		t.exactSlots++
	}
	if e.Slot == 0 {
		return
	}
	if e.Far {
		t.farTimed++
		t.farTime += d
	} else {
		t.exactTimed++
		t.exactTime += d
	}
}

// slotTime is the time booked to slots so far.
func (t *tracer) slotTime() time.Duration { return t.exactTime + t.farTime }
