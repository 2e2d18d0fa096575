package sinrconn

import (
	"context"

	"sinrconn/internal/core"
	"sinrconn/internal/sim"
)

// AggFunc combines two partial aggregates during a converge-cast. It must
// be commutative and associative.
type AggFunc func(a, b int64) int64

// MaxAgg folds with max.
func MaxAgg(a, b int64) int64 { return max(a, b) }

// SumAgg folds with addition.
func SumAgg(a, b int64) int64 { return a + b }

// AggregateOutcome reports a physical converge-cast execution.
type AggregateOutcome struct {
	// Value is the aggregate collected at the root.
	Value int64
	// SlotsUsed is the channel time consumed (schedule length + 1 drain
	// slot).
	SlotsUsed int
	// Energy is the total transmission energy spent.
	Energy float64
}

// BroadcastOutcome reports a physical dissemination epoch.
type BroadcastOutcome struct {
	// Reached is the number of nodes that received the value.
	Reached int
	// SlotsUsed is the channel time consumed.
	SlotsUsed int
	// Energy is the total transmission energy spent.
	Energy float64
}

// PairOutcome reports a physical node-to-node message delivery.
type PairOutcome struct {
	// Delivered reports whether dst received the message.
	Delivered bool
	// SlotsUsed is the total channel time: one converge-cast epoch up plus
	// one dissemination epoch down — the Definition 1 "2× schedule" bound.
	SlotsUsed int
	// Energy is the total transmission energy spent.
	Energy float64
}

// epoch runs one physical epoch on r's tree: it admits the operation on
// r (beginResultOp) and hands run the channel, with the session pool
// borrowed for the epoch's duration. WithDropProb and WithSeed apply to
// the epoch itself — fading injected into a converge-cast can
// legitimately lose a transfer, which the epoch reports as an error.
func (nw *Network) epoch(r *Result, opts []RunOption, run func(sim.Config) (*core.EpochOutcome, error)) (*core.EpochOutcome, error) {
	s, done, err := nw.beginResultOp(r, opts)
	if err != nil {
		return nil, err
	}
	defer done()
	ff, err := opFarField(r, r.Tree.inst, s)
	if err != nil {
		return nil, err
	}
	ch, release := nw.channel(s, ff)
	defer release()
	return run(ch)
}

// Broadcast physically executes one dissemination epoch over the SINR
// channel: the bi-tree's dual links fire in reversed schedule order,
// carrying value from the root to every node (Definition 1). An error
// means some node was left unreached — a schedule or physics violation.
func (nw *Network) Broadcast(ctx context.Context, r *Result, value int64, opts ...RunOption) (*BroadcastOutcome, error) {
	out, err := nw.epoch(r, opts, func(ecfg sim.Config) (*core.EpochOutcome, error) {
		return core.RunBroadcast(ctx, r.Tree.inst, r.Tree.inner, value, ecfg)
	})
	if err != nil {
		return nil, err
	}
	return &BroadcastOutcome{Reached: out.Reached, SlotsUsed: out.SlotsUsed, Energy: out.Energy}, nil
}

// Aggregate physically executes one converge-cast epoch over the SINR
// channel: each tree link transmits its sender's running aggregate in its
// scheduled slot at its stamped power, concurrently with the rest of its
// slot group. values[i] is node i's contribution. On success the returned
// Value equals f folded over every tree node's value — if the schedule
// were infeasible or mis-ordered, the physics would lose a transfer and
// Aggregate returns an error instead.
func (nw *Network) Aggregate(ctx context.Context, r *Result, values []int64, f AggFunc, opts ...RunOption) (*AggregateOutcome, error) {
	out, err := nw.epoch(r, opts, func(ecfg sim.Config) (*core.EpochOutcome, error) {
		return core.RunAggregation(ctx, r.Tree.inst, r.Tree.inner, values, f, ecfg)
	})
	if err != nil {
		return nil, err
	}
	return &AggregateOutcome{Value: out.Value, SlotsUsed: out.SlotsUsed, Energy: out.Energy}, nil
}

// SendMessage physically delivers a message from src to dst over the SINR
// channel: the payload piggybacks on one converge-cast epoch to the root,
// then rides one dissemination epoch down (Definition 1's node-to-node
// communication guarantee).
func (nw *Network) SendMessage(ctx context.Context, r *Result, src, dst int, payload int64, opts ...RunOption) (*PairOutcome, error) {
	out, err := nw.epoch(r, opts, func(ecfg sim.Config) (*core.EpochOutcome, error) {
		return core.RunPairMessage(ctx, r.Tree.inst, r.Tree.inner, src, dst, payload, ecfg)
	})
	if err != nil {
		return nil, err
	}
	return &PairOutcome{Delivered: true, SlotsUsed: out.SlotsUsed, Energy: out.Energy}, nil
}
