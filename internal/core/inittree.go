package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"sinrconn/internal/geom"
	"sinrconn/internal/sim"
	"sinrconn/internal/sinr"
	"sinrconn/internal/tree"
)

// ErrNotConverged reports that Init's ladder plus safety rounds ended with
// more than one active node (possible only under extreme drop injection or
// absurd configs).
var ErrNotConverged = errors.New("core: init did not converge to a single active node")

// InitResult is the outcome of the Section 6 construction.
type InitResult struct {
	// Tree is the constructed bi-tree over the participants.
	Tree *tree.BiTree
	// SlotsUsed is the number of channel slots consumed (Theorem 2 measures
	// this as O(log Δ · log n)).
	SlotsUsed int
	// Rounds is the number of rounds executed, including safety rounds.
	Rounds int
	// LadderRounds is ⌈log Δ⌉, the planned doubling ladder length.
	LadderRounds int
	// StrayLinks counts receiver-side tentative links whose acknowledgment
	// was never confirmed by the sender — the links the paper notes are
	// "easy to clean up" (we clean them by keeping sender-confirmed links
	// only).
	StrayLinks int
	// Stats carries the engine counters.
	Stats sim.Stats
}

// Init runs the Section 6 distributed construction on the instance (or on
// cfg.Participants if set) and returns the resulting bi-tree. The slot
// stamps on the tree links are slot-pair indices: links sharing a stamp
// succeeded concurrently and are SINR-feasible together at the round powers.
//
// ctx is checked between slot-pairs: a canceled context aborts the
// construction with an error wrapping ctx.Err(), leaving any shared worker
// pool reusable.
func Init(ctx context.Context, in *sinr.Instance, cfg InitConfig) (*InitResult, error) {
	cfg.defaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	parts := cfg.Participants
	if parts == nil {
		parts = make([]int, in.Len())
		for i := range parts {
			parts[i] = i
		}
	}
	if len(parts) == 0 {
		return nil, errors.New("core: no participants")
	}
	isPart := make([]bool, in.Len())
	var partPts []geom.Point
	for _, v := range parts {
		if v < 0 || v >= in.Len() {
			return nil, fmt.Errorf("core: participant %d out of range", v)
		}
		if isPart[v] {
			return nil, fmt.Errorf("core: duplicate participant %d", v)
		}
		isPart[v] = true
		partPts = append(partPts, in.Point(v))
	}
	if len(parts) == 1 {
		return &InitResult{
			Tree: &tree.BiTree{Root: parts[0], Nodes: parts},
		}, nil
	}

	// Ladder geometry: length classes must cover the longest possible link
	// among participants. With the paper's normalization (min distance 1)
	// this is exactly ⌈log₂ Δ⌉; for participant subsets whose min distance
	// exceeds 1 the max *distance* is what matters, not the ratio.
	ladder := geom.NumLengthClasses(geom.MaxDist(partPts))
	pairs := cfg.pairsPerRound(len(parts))

	spec := new(roundSpec)
	nodes, procs := initProtocols(isPart, &cfg, spec)
	eng, err := sim.NewEngine(in, procs, cfg.engineConfig(cfg.Seed^0x5DEECE66D))
	if err != nil {
		return nil, err
	}
	defer eng.Close()

	res := &InitResult{LadderRounds: ladder}
	// A node deactivates only in a broadcast slot and leaves the engine in
	// that same slot, so after an ack slot eng.Live() is the number of
	// active participants.
	var converged bool
	res.Rounds, converged, err = runLadder(ctx, eng, spec, &cfg, in.Params(), ladder, pairs, "init",
		func() bool { return eng.Live() <= 1 })
	res.SlotsUsed = eng.Stats().Slots
	res.Stats = eng.Stats()
	if err != nil {
		return res, err
	}
	if !converged {
		return res, fmt.Errorf("%w: %d active after %d rounds",
			ErrNotConverged, eng.Live(), res.Rounds)
	}

	// Assemble the tree from sender-confirmed records (stray cleanup).
	bt := &tree.BiTree{Nodes: append([]int(nil), parts...)}
	root := -1
	confirmedChild := make(map[sinr.Link]bool)
	for _, v := range parts {
		nd := nodes[v]
		if nd.active {
			root = v
			continue
		}
		if nd.outLink == nil {
			return res, fmt.Errorf("core: inactive node %d has no out-link", v)
		}
		bt.Up = append(bt.Up, *nd.outLink)
		confirmedChild[sinr.Link{From: nd.outLink.L.To, To: nd.outLink.L.From}] = true
	}
	for _, v := range parts {
		for _, cl := range nodes[v].tentative {
			if !confirmedChild[sinr.Link{From: v, To: cl}] {
				res.StrayLinks++
			}
		}
	}
	if root < 0 {
		return res, errors.New("core: no active root found")
	}
	bt.Root = root
	res.Tree = bt
	return res, nil
}

// initProtocols builds the Section 6 protocol for the participants (isPart)
// of an n-node instance. Node i's seed is the master stream's i-th draw
// whether or not i participates, so a participant's stream depends only on
// cfg.Seed and i. A non-participant gets no node and a nil protocol — the
// engine idles it without ever visiting it. Every node reads the round
// configuration through spec, which the driver rewrites between rounds.
func initProtocols(isPart []bool, cfg *InitConfig, spec *roundSpec) ([]*initNode, []sim.Protocol) {
	master := rand.New(rand.NewSource(cfg.Seed))
	nodes := make([]*initNode, len(isPart))
	procs := make([]sim.Protocol, len(isPart))
	for i, part := range isPart {
		seed := master.Int63()
		if !part {
			continue
		}
		nodes[i] = &initNode{
			id:            i,
			cfg:           cfg,
			rng:           sim.NodeRand{Seed: seed},
			spec:          spec,
			active:        true,
			parent:        -1,
			broadcastPair: -1,
		}
		procs[i] = nodes[i]
	}
	return nodes, procs
}

// runLadder drives the Section 6 round ladder on eng, the loop Init and
// Join share: length classes r = 1..classes with the distance gate
// [2^(r-1), 2^r) ([0, 2^r) when cfg.StrictGate is off), then up to
// cfg.ExtraRounds safety rounds at the top class with the permissive gate.
// A round rewrites *spec, at power SafePower(2^r), and steps up to pairs
// slot pairs, checking ctx before each. done is tested after every pair;
// once it holds, one more pair runs so that a just-acknowledged
// broadcaster can consume its ack (harmless when none is pending), and
// the ladder stops. rounds counts every round begun, the one a canceled
// ctx cut short included.
func runLadder(ctx context.Context, eng *sim.Engine, spec *roundSpec, cfg *InitConfig, p sinr.Params,
	classes, pairs int, stage string, done func() bool) (rounds int, converged bool, err error) {
	for rounds < classes+cfg.ExtraRounds && !converged {
		rounds++
		r := min(rounds, classes)
		rs := roundSpec{hi: math.Exp2(float64(r))}
		if rounds <= classes && cfg.StrictGate {
			rs.lo = math.Exp2(float64(r - 1))
		}
		rs.power = p.SafePower(rs.hi)
		*spec = rs
		// A node uses a broadcast only from a sender closer than hi, and
		// an ack only from a node that heard its broadcast from there.
		eng.SetListenRange(rs.hi)
		for k := 0; k < pairs && !converged; k++ {
			if err := checkCtx(ctx, stage); err != nil {
				return rounds, false, err
			}
			eng.Step() // data slot
			eng.Step() // ack slot
			if converged = done(); converged {
				eng.Step()
				eng.Step()
			}
		}
	}
	return rounds, converged, nil
}

// roundSpec is the per-round physical configuration: the distance gate
// [lo, hi) and the broadcast power 2βN·hi^α.
type roundSpec struct {
	lo, hi float64
	power  float64
}

// initNode is the per-node state machine of the Section 6 protocol.
type initNode struct {
	id      int
	cfg     *InitConfig
	rng     sim.NodeRand
	active  bool
	parent  int
	outLink *tree.TimedLink
	// tentative lists receiver-side child records (including strays whose
	// ack was lost).
	tentative []int
	// broadcastPair is the pair index of an outstanding broadcast awaiting
	// acknowledgment, or -1.
	broadcastPair int
	pendingPower  float64
	// spec is the current round configuration, shared by every node and
	// rewritten by the driver between rounds. Reads happen inside Step,
	// writes between engine steps, so there is no race.
	spec *roundSpec
}

var _ sim.Protocol = (*initNode)(nil)

// Step implements sim.Protocol. Even slots are broadcast slots, odd slots
// are acknowledgment slots.
func (nd *initNode) Step(slot int, inbox []sim.Delivery) sim.Action {
	if slot%2 == 0 {
		return nd.broadcastSlot(slot, inbox)
	}
	return nd.ackSlot(inbox)
}

// broadcastSlot and ackSlot return Leave once the node is inactive: an
// inactive node draws nothing, reads no inbox and would idle forever, so
// the engine stops stepping it.
func (nd *initNode) broadcastSlot(slot int, inbox []sim.Delivery) sim.Action {
	// Consume an acknowledgment from the previous pair: on success this
	// node connects to its new parent and leaves the protocol.
	if nd.broadcastPair >= 0 {
		for _, d := range inbox {
			if d.Msg.Kind == sim.KindAck && d.Msg.To == nd.id {
				nd.active = false
				nd.parent = d.Msg.From
				nd.outLink = &tree.TimedLink{
					L:     sinr.Link{From: nd.id, To: nd.parent},
					Slot:  nd.broadcastPair,
					Power: nd.pendingPower,
				}
				break
			}
		}
		nd.broadcastPair = -1
	}
	if !nd.active {
		return sim.Leave()
	}
	if nd.rng.Float64() < nd.cfg.BroadcastProb {
		nd.broadcastPair = slot / 2
		nd.pendingPower = nd.spec.power
		return sim.Transmit(nd.spec.power, sim.Message{
			Kind: sim.KindBroadcast,
			From: nd.id,
			To:   sim.NoAddressee,
		})
	}
	return sim.Listen()
}

// A node that neither broadcast nor acknowledges idles in the ack slot:
// only a broadcaster reads the next broadcast slot's inbox.
func (nd *initNode) ackSlot(inbox []sim.Delivery) sim.Action {
	if !nd.active {
		return sim.Leave()
	}
	if nd.broadcastPair >= 0 {
		return sim.ListenAddressed() // we broadcast; await our acknowledgment
	}
	for _, d := range inbox {
		if d.Msg.Kind != sim.KindBroadcast {
			continue
		}
		if d.Dist < nd.spec.lo || d.Dist >= nd.spec.hi {
			continue // out of this round's length class
		}
		if nd.rng.Float64() >= nd.cfg.AckProb {
			continue
		}
		// Tentative child record; confirmed only if the sender hears this
		// acknowledgment (stray otherwise — cleaned up by the driver).
		nd.tentative = append(nd.tentative, d.Msg.From)
		return sim.Transmit(nd.spec.power, sim.Message{
			Kind: sim.KindAck,
			From: nd.id,
			To:   d.Msg.From,
		})
	}
	return sim.Idle()
}
