package schedule

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"sinrconn/internal/faults"
	"sinrconn/internal/sim"
	"sinrconn/internal/sinr"
	"sinrconn/internal/tree"
)

// DistConfig tunes the distributed scheduler.
type DistConfig struct {
	// Q0 is the initial per-link transmission probability (default 0.35).
	Q0 float64
	// Decay multiplies a link's probability after an unsuccessful slot-pair
	// (default 0.92). Values in (0,1].
	Decay float64
	// QMin floors the probability so progress never stalls (default 0.02).
	QMin float64
	// MaxSlotPairs caps the run; exceeded means ErrIncomplete
	// (default 400·(len(links)+1)).
	MaxSlotPairs int
	// Seed derives all per-node randomness.
	Seed int64
	// Workers is passed to the sim engine. Ignored when Pool is set.
	Workers int
	// Pool, if non-nil, is a shared persistent sim worker pool the
	// scheduler's engine borrows instead of spawning its own.
	Pool *sim.Pool
	// Far, if non-nil, runs the scheduler's engine under a far-field
	// channel approximation, each slot picking exact or far resolution
	// from its live sender count (see sim.Config.Far).
	Far *sinr.QuadTree
	// Observer, if non-nil, receives a sim.SlotEvent after every scheduler
	// engine slot (the serving layer's streaming hook). Diagnostic only.
	Observer sim.Observer
	// Injector, if non-nil, is the scheduler engine's fault-injection
	// hook (see internal/faults). Injected faults only stall; schedules
	// stay bit-identical to an injector-free run.
	Injector faults.Injector
}

func (c *DistConfig) defaults(nLinks int) {
	if c.Q0 <= 0 || c.Q0 > 1 {
		c.Q0 = 0.35
	}
	if c.Decay <= 0 || c.Decay > 1 {
		c.Decay = 0.92
	}
	if c.QMin <= 0 {
		c.QMin = 0.02
	}
	if c.MaxSlotPairs <= 0 {
		c.MaxSlotPairs = 400 * (nLinks + 1)
	}
}

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
// ctx is checked between slot-pairs; cancellation aborts the run with an
// error wrapping ctx.Err().
func Distributed(ctx context.Context, in *sinr.Instance, links []sinr.Link, pa sinr.Assignment, cfg DistConfig) (*Result, error) {
	cfg.defaults(len(links))
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
	master := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < n; i++ {
		nodes[i] = &schedNode{
			id:  i,
			in:  in,
			pa:  pa,
			cfg: cfg,
			rng: sim.NodeRand{Seed: master.Int63()},
		}
	}
	for _, l := range links {
		nodes[l.From].pending = append(nodes[l.From].pending, pendingLink{l: l, q: cfg.Q0})
	}

	procs := make([]sim.Protocol, n)
	for i := range nodes {
		procs[i] = nodes[i]
	}
	eng, err := sim.NewEngine(in, procs, sim.Config{Workers: cfg.Workers, Seed: cfg.Seed, Pool: cfg.Pool, Far: cfg.Far, Observer: cfg.Observer, Injector: cfg.Injector})
	if err != nil {
		return nil, err
	}
	defer eng.Close()

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
	pairs := 0
	for pairs < cfg.MaxSlotPairs {
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
	cfg       DistConfig
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
			nd.pending[nd.lastTx].q = maxf(p.q*nd.cfg.Decay, nd.cfg.QMin)
		}
	}
	nd.lastTx = -1
	if len(nd.pending) == 0 {
		// Stay listening: we may still need to ack other links' data.
		return sim.ListenAddressed()
	}
	pick := nd.rng.Intn(len(nd.pending))
	p := nd.pending[pick]
	if nd.rng.Float64() < p.q {
		nd.lastTx = pick
		return sim.Transmit(nd.pa.Power(nd.in, p.l), sim.Message{
			Kind: sim.KindData,
			From: nd.id,
			To:   p.l.To,
			Tag:  slot / 2,
		})
	}
	return sim.ListenAddressed()
}

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
	return sim.ListenAddressed()
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
