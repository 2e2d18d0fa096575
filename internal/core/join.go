package core

import (
	"context"
	"fmt"
	"math/rand"

	"sinrconn/internal/geom"
	"sinrconn/internal/sim"
	"sinrconn/internal/sinr"
	"sinrconn/internal/tree"
)

// Join implements the paper's "asynchronous node wakeup" extension
// (Conclusions, Section 9): attach newly awakened nodes to an existing
// bi-tree, distributedly, using only the channel.
//
// The protocol is the natural restriction of Init: members (already
// connected nodes) never broadcast and never leave — they listen and
// acknowledge; joiners behave exactly like Init's active nodes, laddering
// through doubling distance classes. A joiner that receives an
// acknowledgment attaches as a leaf and immediately becomes a member, so
// chains of joiners resolve within the same run.
//
// Scheduling: a leaf's out-link must precede its parent's out-link in the
// aggregation order, so new links are stamped *before* the existing
// schedule: the link formed in pair k of the join run gets stamp
// minSlot − 1 − k, which decreases with attach time — a joiner that
// attached under an earlier joiner fires later than its child, preserving
// the ordering property without touching the existing stamps. Per-pair
// concurrency keeps each new stamp group SINR-feasible.
func Join(ctx context.Context, in *sinr.Instance, bt *tree.BiTree, joiners []int, cfg InitConfig) (*JoinResult, error) {
	cfg.defaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	member := make(map[int]bool, len(bt.Nodes))
	for _, v := range bt.Nodes {
		member[v] = true
	}
	joinSet := make(map[int]bool, len(joiners))
	for _, j := range joiners {
		if j < 0 || j >= in.Len() {
			return nil, fmt.Errorf("core: joiner %d out of range", j)
		}
		if member[j] {
			return nil, fmt.Errorf("core: joiner %d already in the tree", j)
		}
		if joinSet[j] {
			return nil, fmt.Errorf("core: duplicate joiner %d", j)
		}
		joinSet[j] = true
	}
	out := &tree.BiTree{
		Root:  bt.Root,
		Nodes: append([]int(nil), bt.Nodes...),
		Up:    append([]tree.TimedLink(nil), bt.Up...),
	}
	if len(joiners) == 0 {
		return &JoinResult{Tree: out}, nil
	}

	// Ladder covers the farthest joiner-to-anything distance.
	var pts []geom.Point
	for _, v := range bt.Nodes {
		pts = append(pts, in.Point(v))
	}
	for _, j := range joiners {
		pts = append(pts, in.Point(j))
	}
	ladder := geom.NumLengthClasses(geom.MaxDist(pts))
	pairs := cfg.pairsPerRound(len(joiners) + 1)

	// Ack contention: unlike Init, where the set of potential acknowledgers
	// thins as nodes deactivate, every member is a potential acknowledger
	// here — in the permissive safety rounds, all of them. Members
	// therefore draw a decay level ℓ uniform in {0..⌈log₂ n⌉} per ack
	// opportunity and answer with probability 2^−ℓ, which yields a
	// constant probability of an isolated (decodable) acknowledgment per
	// slot-pair regardless of how many members heard the broadcast.
	decayLevels := 1
	for 1<<decayLevels < len(bt.Nodes)+len(joiners) {
		decayLevels++
	}
	forbidden := make(map[sinr.Link]bool, len(cfg.Forbidden))
	for _, l := range cfg.Forbidden {
		forbidden[l] = true
	}
	muted := make(map[int]bool, len(cfg.Mute))
	for _, v := range cfg.Mute {
		muted[v] = true
	}
	// Node i's seed is the master stream's i-th draw whatever its role;
	// nodes outside the tree and the joiner set get a nil protocol, which
	// the engine idles without visiting.
	master := rand.New(rand.NewSource(cfg.Seed))
	spec := new(roundSpec)
	nodes := make([]*joinNode, in.Len())
	procs := make([]sim.Protocol, in.Len())
	for i := 0; i < in.Len(); i++ {
		seed := master.Int63()
		role := joinIdle
		switch {
		case member[i]:
			role = joinMember
		case joinSet[i]:
			role = joinJoiner
		}
		if role == joinIdle {
			continue
		}
		nodes[i] = &joinNode{
			id:            i,
			cfg:           &cfg,
			rng:           sim.NodeRand{Seed: seed},
			role:          role,
			broadcastPair: -1,
			decayLevels:   decayLevels,
			forbidden:     forbidden,
			muted:         muted[i],
			spec:          spec,
		}
		procs[i] = nodes[i]
	}
	eng, err := sim.NewEngine(in, procs, cfg.engineConfig(cfg.Seed^0x9E3779B9))
	if err != nil {
		return nil, err
	}
	defer eng.Close()

	remaining := func() int {
		c := 0
		for _, j := range joiners {
			if nodes[j].role == joinJoiner {
				c++
			}
		}
		return c
	}
	rounds, done, err := runLadder(ctx, eng, spec, &cfg, in.Params(), ladder, pairs, "join",
		func() bool { return remaining() == 0 })
	if err != nil {
		return nil, err
	}
	res := &JoinResult{
		SlotsUsed: eng.Stats().Slots,
		Rounds:    rounds,
		Stats:     eng.Stats(),
	}
	if !done {
		return res, fmt.Errorf("%w: %d joiners unattached", ErrNotConverged, remaining())
	}

	// Merge: stamp new links before the existing schedule, decreasing with
	// attach time so joiner-under-joiner chains stay ordered.
	minSlot, _ := out.SlotSpan()
	if len(out.Up) == 0 {
		minSlot = 1
	}
	for _, j := range joiners {
		nd := nodes[j]
		if nd.outLink == nil {
			return res, fmt.Errorf("core: attached joiner %d has no out-link", j)
		}
		tl := *nd.outLink
		tl.Slot = minSlot - 1 - tl.Slot
		out.Up = append(out.Up, tl)
		out.Nodes = append(out.Nodes, j)
		res.Attached++
	}
	out.Compact()
	res.Tree = out
	return res, nil
}

// JoinResult is the outcome of a Join run.
type JoinResult struct {
	// Tree is the merged bi-tree over the old nodes plus the attached
	// joiners, with a compacted, ordered, per-slot-feasible schedule.
	Tree *tree.BiTree
	// Attached is the number of joiners connected (all of them on success).
	Attached int
	// SlotsUsed is the channel time the join protocol consumed.
	SlotsUsed int
	// Rounds is the number of rounds (ladder + safety) executed.
	Rounds int
	// Stats carries the engine counters.
	Stats sim.Stats
}

type joinRole uint8

const (
	joinIdle joinRole = iota + 1
	joinMember
	joinJoiner
)

// joinNode is the per-node state machine of the join protocol.
type joinNode struct {
	id            int
	cfg           *InitConfig
	rng           sim.NodeRand
	role          joinRole
	outLink       *tree.TimedLink
	broadcastPair int
	pendingPower  float64
	decayLevels   int
	forbidden     map[sinr.Link]bool
	muted         bool
	// spec is the current round configuration, shared like initNode.spec.
	spec *roundSpec
}

var _ sim.Protocol = (*joinNode)(nil)

// Step implements sim.Protocol.
func (nd *joinNode) Step(slot int, inbox []sim.Delivery) sim.Action {
	if slot%2 == 0 {
		return nd.dataSlot(slot, inbox)
	}
	return nd.ackSlot(inbox)
}

func (nd *joinNode) dataSlot(slot int, inbox []sim.Delivery) sim.Action {
	if nd.role == joinJoiner && nd.broadcastPair >= 0 {
		for _, d := range inbox {
			if d.Msg.Kind == sim.KindAck && d.Msg.To == nd.id {
				if nd.forbidden[sinr.Link{From: nd.id, To: d.Msg.From}] {
					continue // would re-create a permanently failed link
				}
				nd.role = joinMember
				nd.outLink = &tree.TimedLink{
					L:     sinr.Link{From: nd.id, To: d.Msg.From},
					Slot:  nd.broadcastPair,
					Power: nd.pendingPower,
				}
				break
			}
		}
		nd.broadcastPair = -1
	}
	switch nd.role {
	case joinJoiner:
		if nd.rng.Float64() < nd.cfg.BroadcastProb {
			nd.broadcastPair = slot / 2
			nd.pendingPower = nd.spec.power
			return sim.Transmit(nd.spec.power, sim.Message{Kind: sim.KindBroadcast, From: nd.id, To: sim.NoAddressee})
		}
		return sim.Idle() // a joiner's ack slot reads no inbox
	case joinMember:
		return sim.Listen()
	default:
		return sim.Idle()
	}
}

// In the ack slot only a joiner that broadcast listens: the next data slot
// reads no other node's inbox, so every other joiner and every member that
// does not acknowledge idles.
func (nd *joinNode) ackSlot(inbox []sim.Delivery) sim.Action {
	switch nd.role {
	case joinJoiner:
		if nd.broadcastPair >= 0 {
			return sim.ListenAddressed() // await our acknowledgment
		}
		return sim.Idle()
	case joinMember:
		if nd.muted {
			// Flap-damped: stays in the tree and keeps relaying, but never
			// invites a new attachment (no acknowledgment, ever).
			return sim.Idle()
		}
		for _, d := range inbox {
			if d.Msg.Kind != sim.KindBroadcast {
				continue
			}
			if d.Dist < nd.spec.lo || d.Dist >= nd.spec.hi {
				continue
			}
			if nd.forbidden[sinr.Link{From: d.Msg.From, To: nd.id}] {
				continue // the broadcaster must not attach through us
			}
			if nd.rng.Float64() >= nd.cfg.AckProb {
				continue
			}
			// Decay sweep: all members share the per-pair level
			// ℓ = pair mod (L+1) (slot counters are common knowledge) and
			// answer with probability 2^−ℓ. At the level where
			// (#listeners)·2^−ℓ ≈ 1 the probability that exactly one
			// member answers — the only decodable outcome when answerers
			// are equidistant — is a constant. Independent per-member
			// levels do NOT concentrate; the common sweep is essential.
			level := (d.Slot / 2) % (nd.decayLevels + 1)
			if nd.rng.Float64() >= 1/float64(int(1)<<level) {
				continue
			}
			return sim.Transmit(nd.spec.power, sim.Message{
				Kind: sim.KindAck,
				From: nd.id,
				To:   d.Msg.From,
			})
		}
		return sim.Idle()
	default:
		return sim.Idle()
	}
}
