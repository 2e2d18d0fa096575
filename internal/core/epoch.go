package core

import (
	"context"
	"fmt"
	"slices"

	"sinrconn/internal/power"
	"sinrconn/internal/sim"
	"sinrconn/internal/sinr"
	"sinrconn/internal/tree"
)

// EpochOutcome reports one physical epoch over a bi-tree's schedule: a
// converge-cast, a dissemination, or a node-to-node message (whose slots,
// deliveries and energy sum its up and down epochs).
type EpochOutcome struct {
	// Value is what the root holds at the end: the aggregate of a
	// converge-cast, the value of a dissemination.
	Value int64
	// Reached is the number of tree nodes holding a value at the end (on a
	// successful dissemination, all of them).
	Reached int
	// SlotsUsed is the channel time consumed: per epoch, the schedule's
	// distinct slots plus one drain slot.
	SlotsUsed int
	// Deliveries counts successful receptions. Every node listens only for
	// messages addressed to it, so a correct converge-cast counts one per
	// link.
	Deliveries int
	// Energy is the total transmission energy spent.
	Energy float64
}

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
// id); fold must be commutative and associative, and on success the
// outcome's Value equals fold over the values of all tree nodes. ecfg
// carries the engine worker budget and shared pool; its
// DropProb/Seed/Observer fields are honored as-is.
func RunAggregation(ctx context.Context, in *sinr.Instance, bt *tree.BiTree, values []int64, fold func(a, b int64) int64, ecfg sim.Config) (*EpochOutcome, error) {
	if len(values) != in.Len() {
		return nil, fmt.Errorf("core: %d values for %d nodes", len(values), in.Len())
	}
	if fold == nil {
		return nil, fmt.Errorf("core: nil aggregate function")
	}
	held := make(map[int]int64, len(bt.Nodes))
	want := values[bt.Root]
	for _, v := range bt.Nodes {
		held[v] = values[v]
		if v != bt.Root {
			want = fold(want, values[v])
		}
	}
	out, _, err := runEpoch(ctx, in, bt, bt.Up, fold, true, held, ecfg)
	if err != nil {
		return nil, err
	}
	if out.Value != want {
		return out, fmt.Errorf("core: physical aggregation produced %d, want %d "+
			"(schedule or physics violation)", out.Value, want)
	}
	return out, nil
}

// RunBroadcast physically executes the dissemination side of the bi-tree
// (Definition 1): the dual links fire in the reversed schedule, each parent
// forwarding the root's value to a child at the stamped power. On success
// every tree node holds the value; a node left without it means the
// schedule or physics was violated, reported as an error.
func RunBroadcast(ctx context.Context, in *sinr.Instance, bt *tree.BiTree, value int64, ecfg sim.Config) (*EpochOutcome, error) {
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
	for _, idxs := range groups {
		links := make([]sinr.Link, len(idxs))
		powers := make([]float64, len(idxs))
		for k, i := range idxs {
			links[k], powers[k] = down[i].L, down[i].Power
		}
		if ok, err := in.SINRFeasible(links, powers); err == nil && ok {
			continue
		}
		solved, _, err := power.Solve(in, links)
		if err != nil {
			return nil, fmt.Errorf("core: dual slot group has no feasible powers: %w", err)
		}
		for k, i := range idxs {
			down[i].Power = solved[k]
		}
	}

	out, _, err := runEpoch(ctx, in, bt, down, nil, false, map[int]int64{bt.Root: value}, ecfg)
	if err != nil {
		return nil, err
	}
	if out.Reached != len(bt.Nodes) {
		return out, fmt.Errorf("core: broadcast reached %d of %d nodes", out.Reached, len(bt.Nodes))
	}
	return out, nil
}

// RunPairMessage physically delivers a message from src to dst over the
// bi-tree: the message rides one full converge-cast epoch up to the root
// (piggybacked on the regular aggregation traffic — every link fires in
// its slot, and whichever node currently holds the message hands it to its
// parent when its out-link fires), then one dissemination epoch down. This
// realizes the paper's claim that "any node-node communication can be
// achieved within time equal to the length of the schedule" (Definition 1)
// — twice the schedule, once up and once down. If the down epoch fails,
// the outcome reports the up epoch alone.
func RunPairMessage(ctx context.Context, in *sinr.Instance, bt *tree.BiTree, src, dst int, payload int64, ecfg sim.Config) (*EpochOutcome, error) {
	if !slices.Contains(bt.Nodes, src) || !slices.Contains(bt.Nodes, dst) {
		return nil, fmt.Errorf("core: src %d / dst %d not in tree", src, dst)
	}
	up, rootHolds, err := runEpoch(ctx, in, bt, bt.Up, nil, true, map[int]int64{src: payload}, ecfg)
	if err != nil {
		return nil, err
	}
	if !rootHolds {
		return up, fmt.Errorf("core: message from %d failed to reach root", src)
	}
	// The down epoch is a dissemination from the root (the paper's
	// reversal: "same links in the opposite direction and same schedule in
	// opposite order"), dual-power re-solve included.
	down, err := RunBroadcast(ctx, in, bt, payload, ecfg)
	if err != nil {
		return up, fmt.Errorf("core: down phase: %w", err)
	}
	down.SlotsUsed += up.SlotsUsed
	down.Deliveries += up.Deliveries
	down.Energy += up.Energy
	return down, nil
}

// runEpoch runs one epoch of the relay protocol on bt's nodes: every link
// fires at the rank of its slot with its own Power, the tree nodes in held
// start out holding their values, and one extra slot drains the last
// deliveries into their receivers. An up epoch fires every link, a down
// epoch only the links whose sender holds a value by then. fold is nil
// when a received value replaces the held one. rootHolds reports whether
// the root holds a value at the end.
func runEpoch(ctx context.Context, in *sinr.Instance, bt *tree.BiTree, links []tree.TimedLink, fold func(a, b int64) int64, up bool, held map[int]int64, ecfg sim.Config) (out *EpochOutcome, rootHolds bool, err error) {
	rank, stamps := tree.RankSlots(links)
	relays := make([]relay, in.Len())
	procs := make([]sim.Protocol, in.Len())
	for i := range relays {
		relays[i] = relay{id: i, up: up, fold: fold}
		procs[i] = &relays[i]
	}
	for _, v := range bt.Nodes {
		relays[v].member = true
		relays[v].value, relays[v].holds = held[v]
	}
	for _, tl := range links {
		r := &relays[tl.L.From]
		r.duties = append(r.duties, relayDuty{slot: rank[tl.Slot], to: tl.L.To, power: tl.Power})
	}

	eng, err := sim.NewEngine(in, procs, ecfg)
	if err != nil {
		return nil, false, err
	}
	if _, err := eng.RunCtx(ctx, len(stamps)+1); err != nil {
		return nil, false, fmt.Errorf("core: epoch canceled: %w", err)
	}
	st := eng.Stats()
	root := &relays[bt.Root]
	out = &EpochOutcome{Value: root.value, SlotsUsed: st.Slots, Deliveries: st.Deliveries, Energy: st.Energy}
	for _, v := range bt.Nodes {
		if relays[v].holds {
			out.Reached++
		}
	}
	return out, root.holds, nil
}

// relayDuty is one link a relay transmits on: at engine slot slot, to
// node to, at power power.
type relayDuty struct {
	slot  int
	to    int
	power float64
}

// relay is one node's part of a physical epoch. A message tagged 1
// carries a value: a holder folds it into its own, a node with no fold or
// holding nothing yet adopts it. At a duty's slot an up relay always
// transmits, its value tagged 1 if it holds one and untagged otherwise; a
// down relay transmits only once it holds a value.
type relay struct {
	id     int
	member bool
	up     bool
	holds  bool
	value  int64
	fold   func(a, b int64) int64
	duties []relayDuty
}

var _ sim.Protocol = (*relay)(nil)

// Step implements sim.Protocol: take in the tagged values addressed to
// this node, fire the duty of this slot, listen for messages addressed to
// this node otherwise. A relay declares no next action (sim.Action.Then):
// whether its next slot transmits depends on that slot's duty, which one
// declared kind cannot express.
func (r *relay) Step(slot int, inbox []sim.Delivery) sim.Action {
	if !r.member {
		return sim.Idle()
	}
	for _, d := range inbox {
		if d.Msg.Kind != sim.KindData || d.Msg.To != r.id || d.Msg.Tag != 1 {
			continue
		}
		if r.holds && r.fold != nil {
			r.value = r.fold(r.value, d.Msg.Payload)
		} else {
			r.holds, r.value = true, d.Msg.Payload
		}
	}
	for _, duty := range r.duties {
		if duty.slot != slot || !(r.up || r.holds) {
			continue
		}
		tag := 0
		if r.holds {
			tag = 1
		}
		return sim.Transmit(duty.power, sim.Message{
			Kind:    sim.KindData,
			From:    r.id,
			To:      duty.to,
			Tag:     tag,
			Payload: r.value,
		})
	}
	return sim.ListenAddressed()
}
