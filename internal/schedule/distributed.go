package schedule

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"sinrconn/internal/sim"
	"sinrconn/internal/sinr"
	"sinrconn/internal/tree"
)

// The contention-resolution constants: each pending link starts at
// transmission probability q0, multiplies it by decay after every
// unsuccessful slot-pair, and never drops below qMin, so progress never
// stalls.
const (
	q0    = 0.35
	decay = 0.92
	qMin  = 0.02
)

// maxSlotPairs caps a run over nLinks links; exceeding it means
// ErrIncomplete.
func maxSlotPairs(nLinks int) int { return 400 * (nLinks + 1) }

// ErrIncomplete reports that the distributed scheduler hit its slot budget
// with links still unscheduled.
var ErrIncomplete = errors.New("schedule: distributed scheduler did not finish within budget")

// Result is the outcome of the distributed scheduler.
type Result struct {
	// Slot maps each link to the 1-based compacted slot it was scheduled
	// in. Links that share a slot succeeded in the same slot-pair and are
	// therefore SINR-feasible together under the assignment used.
	Slot map[sinr.Link]int
	// NumSlots is the compacted schedule length (number of distinct slots).
	NumSlots int
	// SlotPairs is the makespan: slot-pairs of channel time consumed.
	SlotPairs int
	// Stats carries the engine counters.
	Stats sim.Stats
}

// Distributed schedules links under assignment pa using contention
// resolution with acknowledgment (the link transmits, its receiver answers
// on the dual; only doubly-confirmed links count, per Appendix C). Each
// pending link transmits with an adaptive probability that decays on
// failure. Multiple pending links sharing a sender are multiplexed
// randomly; half-duplex conflicts are resolved by the physics itself.
// The run's engine uses ecfg as its channel, and ecfg.Seed also derives
// every node's random stream. ctx is checked between slot-pairs;
// cancellation aborts the run with an error wrapping ctx.Err().
func Distributed(ctx context.Context, in *sinr.Instance, links []sinr.Link, pa sinr.Assignment, ecfg sim.Config) (*Result, error) {
	if len(links) == 0 {
		return &Result{Slot: map[sinr.Link]int{}}, nil
	}
	for _, l := range links {
		if l.From == l.To {
			return nil, fmt.Errorf("schedule: self-loop link %v", l)
		}
	}

	n := in.Len()
	nodes := make([]*schedNode, n)
	master := rand.New(rand.NewSource(ecfg.Seed))
	for i := 0; i < n; i++ {
		nodes[i] = &schedNode{
			id:  i,
			in:  in,
			pa:  pa,
			rng: sim.NodeRand{Seed: master.Int63()},
		}
	}
	for _, l := range links {
		nodes[l.From].pending = append(nodes[l.From].pending, pendingLink{l: l, q: q0})
	}

	procs := make([]sim.Protocol, n)
	for i := range nodes {
		procs[i] = nodes[i]
	}
	eng, err := sim.NewEngine(in, procs, ecfg)
	if err != nil {
		return nil, err
	}

	done := func() bool {
		for _, nd := range nodes {
			if len(nd.pending) > 0 {
				return false
			}
		}
		return true
	}
	// Two engine slots per slot-pair; stop as soon as every pending queue
	// drains (checked at pair boundaries).
	pairs, budget := 0, maxSlotPairs(len(links))
	for pairs < budget {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("schedule: distributed scheduler canceled: %w", err)
		}
		eng.Step()
		eng.Step()
		pairs++
		if done() {
			break
		}
	}
	// One more pair lets senders consume the final ack inbox.
	eng.Step()
	eng.Step()

	res := &Result{Slot: make(map[sinr.Link]int, len(links)), SlotPairs: pairs, Stats: eng.Stats()}
	if !done() {
		return nil, fmt.Errorf("%w: %d pairs", ErrIncomplete, pairs)
	}
	timed := make([]tree.TimedLink, 0, len(links))
	for _, nd := range nodes {
		for l, pair := range nd.scheduled {
			timed = append(timed, tree.TimedLink{L: l, Slot: pair})
		}
	}
	if len(timed) != len(links) {
		return nil, fmt.Errorf("schedule: %d of %d links recorded", len(timed), len(links))
	}
	// Compact distinct slot-pair stamps to 1..k.
	rank, stamps := tree.RankSlots(timed)
	for _, tl := range timed {
		res.Slot[tl.L] = rank[tl.Slot] + 1
	}
	res.NumSlots = len(stamps)
	return res, nil
}

type pendingLink struct {
	l sinr.Link
	q float64
}

// schedNode multiplexes a node's pending out-links and its ack duties.
type schedNode struct {
	id        int
	in        *sinr.Instance
	pa        sinr.Assignment
	rng       sim.NodeRand
	pending   []pendingLink
	scheduled map[sinr.Link]int // link → slot-pair index
	// lastTx is the index into pending of the link transmitted in the
	// current data slot, or -1.
	lastTx int
}

var _ sim.Protocol = (*schedNode)(nil)

// Step implements sim.Protocol. Even engine slots are data slots, odd are
// ack slots.
func (nd *schedNode) Step(slot int, inbox []sim.Delivery) sim.Action {
	if slot%2 == 0 {
		return nd.dataSlot(slot, inbox)
	}
	return nd.ackSlot(inbox)
}

func (nd *schedNode) dataSlot(slot int, inbox []sim.Delivery) sim.Action {
	// Resolve the previous pair: did our transmission get acknowledged?
	if nd.lastTx >= 0 && nd.lastTx < len(nd.pending) {
		p := nd.pending[nd.lastTx]
		acked := false
		for _, d := range inbox {
			if d.Msg.Kind == sim.KindAck && d.Msg.To == nd.id && d.Msg.From == p.l.To {
				acked = true
				break
			}
		}
		if acked {
			if nd.scheduled == nil {
				nd.scheduled = make(map[sinr.Link]int)
			}
			nd.scheduled[p.l] = slot/2 - 1
			nd.pending = append(nd.pending[:nd.lastTx], nd.pending[nd.lastTx+1:]...)
		} else {
			nd.pending[nd.lastTx].q = maxf(p.q*decay, qMin)
		}
	}
	nd.lastTx = -1
	if len(nd.pending) == 0 {
		// Stay listening: we may still need to ack other links' data.
		return drainedListen
	}
	// Every data-slot action declares the ack slot (Action.Then): a node
	// that receives no data listens for acks.
	pick := nd.rng.Intn(len(nd.pending))
	p := nd.pending[pick]
	if nd.rng.Float64() < p.q {
		nd.lastTx = pick
		a := sim.Transmit(nd.pa.Power(nd.in, p.l), sim.Message{
			Kind: sim.KindData,
			From: nd.id,
			To:   p.l.To,
			Tag:  slot / 2,
		})
		a.Then = sim.ActionListenAddressed
		return a
	}
	return sim.Action{Kind: sim.ActionListenAddressed, Then: sim.ActionListenAddressed}
}

// drainedListen is a drained node's action in every slot it hears nothing
// in: with no link pending, its data slot reads no inbox and its ack slot
// acknowledges only data it received, so it holds addressed listening
// (Action.Hold) and is stepped only when a delivery arrives.
var drainedListen = sim.Action{Kind: sim.ActionListenAddressed, Then: sim.ActionListenAddressed, Hold: true}

func (nd *schedNode) ackSlot(inbox []sim.Delivery) sim.Action {
	// If we decoded a data message addressed to us, acknowledge it on the
	// dual link with the same assignment's power.
	for _, d := range inbox {
		if d.Msg.Kind == sim.KindData && d.Msg.To == nd.id {
			dual := sinr.Link{From: nd.id, To: d.Msg.From}
			return sim.Transmit(nd.pa.Power(nd.in, dual), sim.Message{
				Kind: sim.KindAck,
				From: nd.id,
				To:   d.Msg.From,
			})
		}
	}
	// Only a node that sent data reads the next inbox, for its ack; every
	// ack is addressed to the data's sender, so the engine decodes no
	// other listener.
	if len(nd.pending) == 0 {
		return drainedListen
	}
	return sim.ListenAddressed()
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
