package core

import (
	"context"
	"fmt"

	"sinrconn/internal/power"
	"sinrconn/internal/sim"
	"sinrconn/internal/sinr"
	"sinrconn/internal/tree"
)

// BroadcastOutcome reports a physical execution of the dissemination tree.
type BroadcastOutcome struct {
	// Reached is the number of nodes that received the root's value
	// (on success, all of them).
	Reached int
	// SlotsUsed is the channel time consumed.
	SlotsUsed int
	// Energy is the total transmission energy spent.
	Energy float64
}

// RunBroadcast physically executes the dissemination side of the bi-tree
// (Definition 1): the dual links fire in the reversed schedule, each parent
// forwarding the root's value to a child at the stamped power. On success
// every tree node holds the value; a node left without it means the
// schedule or physics was violated, reported as an error.
func RunBroadcast(ctx context.Context, in *sinr.Instance, bt *tree.BiTree, value int64, ecfg sim.Config) (*BroadcastOutcome, error) {
	down := bt.Down()
	rank, stamps := tree.RankSlots(down)

	// Power check per down-slot group. Definition 1 reuses the up-schedule
	// for the duals, but feasibility does not transfer exactly: for
	// oblivious assignments the dual link has the same length and power and
	// the Init ack slot already proved the dual group feasible, while for
	// *computed* (arbitrary) powers the dual group may need its own power
	// vector — Claim 8.3 guarantees one exists up to constants. We model
	// the root-initiated reversal pass the paper alludes to ("a reversal
	// process initiated by the root... we omit these details") by
	// re-solving each dual group that is not feasible at the stamped
	// powers.
	groups := make([][]int, len(stamps))
	for i, tl := range down {
		groups[rank[tl.Slot]] = append(groups[rank[tl.Slot]], i)
	}
	downPower := make([]float64, len(down))
	for i, tl := range down {
		downPower[i] = tl.Power
	}
	for _, idxs := range groups {
		links := make([]sinr.Link, len(idxs))
		powers := make([]float64, len(idxs))
		for k, i := range idxs {
			links[k] = down[i].L
			powers[k] = down[i].Power
		}
		if ok, err := in.SINRFeasible(links, powers); err == nil && ok {
			continue
		}
		solved, _, err := power.Solve(in, links)
		if err != nil {
			return nil, fmt.Errorf("core: dual slot group has no feasible powers: %w", err)
		}
		for k, i := range idxs {
			downPower[i] = solved[k]
		}
	}

	inTree := make(map[int]bool, len(bt.Nodes))
	for _, v := range bt.Nodes {
		inTree[v] = true
	}
	nodes := make([]*bcastNode, in.Len())
	procs := make([]sim.Protocol, in.Len())
	for i := 0; i < in.Len(); i++ {
		nodes[i] = &bcastNode{id: i, member: inTree[i]}
		procs[i] = nodes[i]
	}
	nodes[bt.Root].have = true
	nodes[bt.Root].value = value
	// Each down-link (parent → child) is a transmit duty of the parent at
	// the ranked slot. A parent with several children transmits once per
	// child link, at each link's own slot.
	for i, tl := range down {
		nd := nodes[tl.L.From]
		nd.duties = append(nd.duties, bcastDuty{
			slot:  rank[tl.Slot],
			to:    tl.L.To,
			power: downPower[i],
		})
	}

	eng, err := sim.NewEngine(in, procs, ecfg)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	if _, err := eng.RunCtx(ctx, len(stamps)+1); err != nil {
		return nil, fmt.Errorf("core: broadcast canceled: %w", err)
	}

	out := &BroadcastOutcome{
		SlotsUsed: eng.Stats().Slots,
		Energy:    eng.Stats().Energy,
	}
	for _, v := range bt.Nodes {
		if nodes[v].have && nodes[v].value == value {
			out.Reached++
		}
	}
	if out.Reached != len(bt.Nodes) {
		return out, fmt.Errorf("core: broadcast reached %d of %d nodes", out.Reached, len(bt.Nodes))
	}
	return out, nil
}

type bcastDuty struct {
	slot  int
	to    int
	power float64
}

// bcastNode executes one node's part of the dissemination schedule.
type bcastNode struct {
	id     int
	member bool
	have   bool
	value  int64
	duties []bcastDuty
}

var _ sim.Protocol = (*bcastNode)(nil)

// Step implements sim.Protocol: adopt any value addressed to us, then
// transmit to the child whose down-link fires this slot (if we already
// hold the value — the reversed ordering guarantees we do).
func (nd *bcastNode) Step(slot int, inbox []sim.Delivery) sim.Action {
	if !nd.member {
		return sim.Idle()
	}
	for _, d := range inbox {
		if d.Msg.Kind == sim.KindData && d.Msg.To == nd.id {
			nd.have = true
			nd.value = d.Msg.Payload
		}
	}
	for _, duty := range nd.duties {
		if duty.slot == slot && nd.have {
			return sim.Transmit(duty.power, sim.Message{
				Kind:    sim.KindData,
				From:    nd.id,
				To:      duty.to,
				Payload: nd.value,
			})
		}
	}
	return sim.ListenAddressed()
}
