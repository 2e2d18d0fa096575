package core

import (
	"context"
	"fmt"

	"sinrconn/internal/sim"
	"sinrconn/internal/sinr"
	"sinrconn/internal/tree"
)

// AggregationOutcome reports a physical execution of a bi-tree's
// converge-cast schedule on the channel.
type AggregationOutcome struct {
	// Value is the aggregate the root ended up with.
	Value int64
	// SlotsUsed is the number of channel slots consumed (= schedule
	// length + 1 drain slot).
	SlotsUsed int
	// Deliveries counts successful receptions. Every node listens only
	// for messages addressed to it, so a correct run counts one per
	// aggregation link.
	Deliveries int
	// Energy is the total transmission energy spent.
	Energy float64
}

// AggFunc combines two partial aggregates. It must be commutative and
// associative (max, sum, min, ...).
type AggFunc func(a, b int64) int64

// MaxAgg is the max aggregate.
func MaxAgg(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// SumAgg is the sum aggregate.
func SumAgg(a, b int64) int64 { return a + b }

// RunAggregation physically executes the bi-tree's converge-cast on the
// SINR channel: in schedule order, every link of a slot transmits its
// sender's running aggregate with the stamped power, concurrently; the
// parent folds in what it decodes. Unlike the logical replay
// (tree.AggregationLatency), this run exercises the actual physics — if a
// stamped slot group were not SINR-feasible, or the ordering were wrong,
// some transfer would be lost and the root's aggregate would come out
// wrong, which the function reports as an error.
//
// values[i] is node i's initial contribution (indexed by instance node
// id); on success the outcome's Value equals f folded over the values of
// all tree nodes. ecfg carries the engine worker budget and shared pool;
// its DropProb/Seed/Observer fields are honored as-is.
func RunAggregation(ctx context.Context, in *sinr.Instance, bt *tree.BiTree, values []int64, f AggFunc, ecfg sim.Config) (*AggregationOutcome, error) {
	if len(values) != in.Len() {
		return nil, fmt.Errorf("core: %d values for %d nodes", len(values), in.Len())
	}
	if f == nil {
		return nil, fmt.Errorf("core: nil aggregate function")
	}
	// Rank the distinct schedule slots: engine slot = rank of schedule slot.
	rank, stamps := tree.RankSlots(bt.Up)

	inTree := make(map[int]bool, len(bt.Nodes))
	for _, v := range bt.Nodes {
		inTree[v] = true
	}
	nodes := make([]*aggNode, in.Len())
	procs := make([]sim.Protocol, in.Len())
	for i := 0; i < in.Len(); i++ {
		nodes[i] = &aggNode{
			id:     i,
			txSlot: -1,
			value:  values[i],
			fold:   f,
			member: inTree[i],
		}
		procs[i] = nodes[i]
	}
	for _, tl := range bt.Up {
		nd := nodes[tl.L.From]
		nd.txSlot = rank[tl.Slot]
		nd.parent = tl.L.To
		nd.power = tl.Power
	}

	eng, err := sim.NewEngine(in, procs, ecfg)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	// One extra slot drains the final deliveries into the root's fold.
	if _, err := eng.RunCtx(ctx, len(stamps)+1); err != nil {
		return nil, fmt.Errorf("core: aggregation canceled: %w", err)
	}

	expected := values[bt.Root]
	for _, v := range bt.Nodes {
		if v != bt.Root {
			expected = f(expected, values[v])
		}
	}
	got := nodes[bt.Root].value
	out := &AggregationOutcome{
		Value:      got,
		SlotsUsed:  eng.Stats().Slots,
		Deliveries: eng.Stats().Deliveries,
		Energy:     eng.Stats().Energy,
	}
	if got != expected {
		return out, fmt.Errorf("core: physical aggregation produced %d, want %d "+
			"(schedule or physics violation)", got, expected)
	}
	return out, nil
}

// aggNode executes one node's part of the converge-cast schedule.
type aggNode struct {
	id     int
	member bool
	parent int
	txSlot int // engine slot at which the out-link fires; -1 for the root
	power  float64
	value  int64
	fold   AggFunc
}

var _ sim.Protocol = (*aggNode)(nil)

// Step implements sim.Protocol: fold anything addressed to it, transmit at
// the assigned slot, listen for messages addressed to it otherwise.
func (nd *aggNode) Step(slot int, inbox []sim.Delivery) sim.Action {
	if !nd.member {
		return sim.Idle()
	}
	for _, d := range inbox {
		if d.Msg.Kind == sim.KindData && d.Msg.To == nd.id {
			nd.value = nd.fold(nd.value, d.Msg.Payload)
		}
	}
	if slot == nd.txSlot {
		return sim.Transmit(nd.power, sim.Message{
			Kind:    sim.KindData,
			From:    nd.id,
			To:      nd.parent,
			Payload: nd.value,
		})
	}
	return sim.ListenAddressed()
}
