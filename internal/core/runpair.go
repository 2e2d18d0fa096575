package core

import (
	"context"
	"fmt"

	"sinrconn/internal/sim"
	"sinrconn/internal/sinr"
	"sinrconn/internal/tree"
)

// PairOutcome reports a physical node-to-node message delivery.
type PairOutcome struct {
	// Delivered reports whether dst holds the message at the end.
	Delivered bool
	// SlotsUsed is the total channel time: one converge-cast epoch plus
	// one dissemination epoch (the paper's 2×schedule bound).
	SlotsUsed int
	// Energy is the total transmission energy spent.
	Energy float64
}

// RunPairMessage physically delivers a message from src to dst over the
// bi-tree: the message rides one full converge-cast epoch up to the root
// (piggybacked on the regular aggregation traffic — every link fires in
// its slot, and whichever node currently holds the message hands it to its
// parent when its out-link fires), then one dissemination epoch down. This
// realizes the paper's claim that "any node-node communication can be
// achieved within time equal to the length of the schedule" (Definition 1)
// — twice the schedule, once up and once down.
func RunPairMessage(ctx context.Context, in *sinr.Instance, bt *tree.BiTree, src, dst int, payload int64, ecfg sim.Config) (*PairOutcome, error) {
	inTree := make(map[int]bool, len(bt.Nodes))
	for _, v := range bt.Nodes {
		inTree[v] = true
	}
	if !inTree[src] || !inTree[dst] {
		return nil, fmt.Errorf("core: src %d / dst %d not in tree", src, dst)
	}

	// Phase 1: converge-cast epoch; the holder flag rides up.
	upRank, upStamps := tree.RankSlots(bt.Up)
	nodes := make([]*pairNode, in.Len())
	procs := make([]sim.Protocol, in.Len())
	for i := 0; i < in.Len(); i++ {
		nodes[i] = &pairNode{id: i, member: inTree[i], txSlot: -1}
		procs[i] = nodes[i]
	}
	for _, tl := range bt.Up {
		nd := nodes[tl.L.From]
		nd.txSlot = upRank[tl.Slot]
		nd.to = tl.L.To
		nd.power = tl.Power
	}
	nodes[src].holds = true
	nodes[src].payload = payload

	eng, err := sim.NewEngine(in, procs, ecfg)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	if _, err := eng.RunCtx(ctx, len(upStamps)+1); err != nil {
		return nil, fmt.Errorf("core: pair message canceled: %w", err)
	}
	upStats := eng.Stats()
	out := &PairOutcome{SlotsUsed: upStats.Slots, Energy: upStats.Energy}
	if !nodes[bt.Root].holds {
		return out, fmt.Errorf("core: message from %d failed to reach root", src)
	}

	// Phase 2: a dissemination epoch carries the message from the root to
	// everyone — in particular dst (the paper's reversal: "same links in
	// the opposite direction and same schedule in opposite order").
	// RunBroadcast also handles the dual-power subtlety.
	bout, err := RunBroadcast(ctx, in, bt, payload, ecfg)
	if err != nil {
		return out, fmt.Errorf("core: down phase: %w", err)
	}
	out.SlotsUsed += bout.SlotsUsed
	out.Energy += bout.Energy
	out.Delivered = true
	return out, nil
}

// pairNode carries a message up the aggregation schedule.
type pairNode struct {
	id      int
	member  bool
	txSlot  int
	to      int
	power   float64
	holds   bool
	payload int64
}

var _ sim.Protocol = (*pairNode)(nil)

// Step implements sim.Protocol: adopt the message if addressed to us, and
// fire our scheduled transmission (tagged with whether we hold the
// message).
func (nd *pairNode) Step(slot int, inbox []sim.Delivery) sim.Action {
	if !nd.member {
		return sim.Idle()
	}
	for _, d := range inbox {
		if d.Msg.Kind == sim.KindData && d.Msg.To == nd.id && d.Msg.Tag == 1 {
			nd.holds = true
			nd.payload = d.Msg.Payload
		}
	}
	if slot == nd.txSlot {
		tag := 0
		if nd.holds {
			tag = 1
		}
		return sim.Transmit(nd.power, sim.Message{
			Kind:    sim.KindData,
			From:    nd.id,
			To:      nd.to,
			Tag:     tag,
			Payload: nd.payload,
		})
	}
	return sim.ListenAddressed()
}
