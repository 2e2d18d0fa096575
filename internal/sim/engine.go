package sim

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"sinrconn/internal/faults"
	"sinrconn/internal/sinr"
)

// MsgKind distinguishes protocol message types. The paper uses two:
// exploratory broadcasts (ID + location) and addressed acknowledgments.
type MsgKind uint8

// Message kinds.
const (
	KindBroadcast MsgKind = iota + 1
	KindAck
	KindData
)

// NoAddressee marks a message sent to no node in particular (a broadcast).
const NoAddressee = -1

// Message is the content of one transmission. A single message is large
// enough to contain the ID and the location of a node (Section 3); the
// location is implied by From, since every node knows the point set index
// it occupies and receivers learn distances from the physics (Delivery.Dist).
type Message struct {
	Kind MsgKind
	// From is the sender's node index (its globally unique ID).
	From int
	// To is the addressee for acknowledgments, or NoAddressee.
	To int
	// Tag carries protocol-defined context (e.g. the Init round number or a
	// Distr-Cap phase index).
	Tag int
	// Payload carries small protocol data (e.g. an aggregate value).
	Payload int64
}

// ActionKind enumerates what a node does in a slot.
type ActionKind uint8

// Actions a protocol can take in a slot.
const (
	// ActionIdle: the node neither transmits nor listens in this slot.
	// Idle nodes cost nothing in the physics computation.
	ActionIdle ActionKind = iota + 1
	// ActionListen: the node listens and may receive one message.
	ActionListen
	// ActionTransmit: the node transmits Msg with power Power. Transmitting
	// nodes cannot receive in the same slot (half-duplex).
	ActionTransmit
	// ActionLeave: the node has finished the protocol for good. It idles
	// in this slot and the engine never steps it again, so from this slot
	// on it costs nothing at all.
	ActionLeave
	// ActionListenAddressed: the node listens like ActionListen but reads
	// only messages addressed to it (Msg.To equal to its index). A slot
	// whose decoded message is addressed elsewhere delivers nothing to it,
	// and the engine skips decoding it when no sender addresses it.
	ActionListenAddressed
)

// String names the kind, as its constant does without the Action prefix.
func (k ActionKind) String() string {
	switch k {
	case ActionIdle:
		return "Idle"
	case ActionListen:
		return "Listen"
	case ActionTransmit:
		return "Transmit"
	case ActionLeave:
		return "Leave"
	case ActionListenAddressed:
		return "ListenAddressed"
	}
	return fmt.Sprintf("ActionKind(%d)", uint8(k))
}

// Action is a protocol's decision for one slot.
//
// Then and Hold declare the node's next slots in advance, so the engine can
// take them without calling Step. Then says: on an empty inbox, my next
// Step would return Action{Kind: Then} and change no state. Hold extends
// that to every later slot: on empty inboxes the node keeps alternating
// Kind and Then (with Kind == Then, it holds that one action), and the
// engine steps it again only once a delivery arrives. Until then the
// node sits outside the slot loop and costs nothing in a slot whose
// senders cannot reach it. Then, and under Hold also Kind, must be Idle,
// Listen or ListenAddressed: a declared slot carries no message. The
// declaration must stay true whatever the driver changes between slots.
// Both fields sit in the padding after Kind, so an Action stays 56 bytes.
type Action struct {
	Kind  ActionKind
	Then  ActionKind
	Hold  bool
	Power float64
	Msg   Message
}

// Idle returns the idle action.
func Idle() Action { return Action{Kind: ActionIdle} }

// Leave returns the leave action: idle now and in every later slot,
// without being stepped.
func Leave() Action { return Action{Kind: ActionLeave} }

// ListenAddressed returns the addressed listen action: listen, but read
// only a message whose Msg.To is this node. A message with To < 0
// (NoAddressee) or To ≥ n addresses no node.
func ListenAddressed() Action { return Action{Kind: ActionListenAddressed} }

// Transmit returns a transmit action.
func Transmit(power float64, msg Message) Action {
	return Action{Kind: ActionTransmit, Power: power, Msg: msg}
}

// Delivery is a successfully decoded message as seen by a receiver.
type Delivery struct {
	Msg Message
	// Dist is the distance to the sender. The receiver can always compute
	// it because messages carry the sender's location (Section 3).
	Dist float64
	// SINR is the measured signal-to-interference-and-noise ratio of the
	// reception. Section 8.2 explicitly assumes receivers can measure it.
	SINR float64
	// Slot is the slot in which the message was transmitted.
	Slot int
}

// Protocol is a per-node state machine. Step is called once per slot with
// the deliveries received in the previous slot (at most one under β ≥ 1,
// but the API permits more for β < 1 configurations) and returns the node's
// action for this slot. Implementations must confine themselves to their
// own state: Step is invoked concurrently across nodes.
//
// A nil Protocol in the slice handed to NewEngine is a node that idles in
// every slot. The engine never visits it, so a run whose protocol gives
// most nodes nothing to do costs only what its live nodes cost. A protocol
// that is finished for good returns Leave: from then on the engine treats
// it like a nil entry, so a node that has left costs nothing either. A
// protocol that knows what it does next on an empty inbox declares it
// (Action.Then, Action.Hold): the engine then takes the declared action in
// place of the call, and a node that holds is not visited at all until a
// delivery reaches it. Step therefore must not count its calls: a skipped
// call is one that would have changed nothing, slot numbers included.
type Protocol interface {
	Step(slot int, inbox []Delivery) Action
}

// Config tunes the engine.
type Config struct {
	// DropProb injects reception failures: each otherwise-successful
	// delivery is independently dropped with this probability (modeling
	// fading the SINR mean-path-loss model misses). Drops are derived
	// deterministically from Seed, slot, and receiver.
	DropProb float64
	// Seed drives the drop-injection randomness.
	Seed int64
	// Observer, if non-nil, is invoked after every slot with a summary of
	// channel activity (for tracing and live experiment dashboards).
	Observer Observer
	// Injector, if non-nil, is consulted at the engine's fault-injection
	// sites (sim.slot.slow before each slot, pool.worker.stall before
	// each pool job, so only in stages that fan out — see
	// internal/faults). Firing only stalls: injected delays never change
	// schedules or stats, so a fault-free replay of the same seed is
	// bit-identical to an engine without an injector.
	Injector faults.Injector
	// Pool, if non-nil, is the worker pool the engine fans its large
	// stages out to. The engine only borrows it: no engine owns or spawns
	// goroutines, so the pool's owner (the session handle,
	// sinrconn.Network) reuses one pool across many engine lifetimes and
	// across concurrent engines, and closes it. A slot fans a stage out
	// only when its work pays for the dispatch (stepFanOutMin,
	// decodeFanOutMin). With Pool nil, or a one-worker pool, every stage
	// runs on the engine goroutine; results are the same either way.
	Pool *Pool
	// Far, if non-nil, switches channel resolution to a far-field
	// approximation plan — the hierarchical quadtree: per slot, senders
	// are aggregated spatially and a listener resolves distant senders by
	// centroid mass instead of sender by sender, within the plan's
	// certified relative error. The decoded winner and its received power
	// stay exact (the plan refines any aggregate that could hide the
	// strongest sender); only Delivery.SINR carries the ε bound. The plan
	// must be built from the engine's own Instance. Nil means exact
	// resolution — bit-identical to the pre-far-field engine.
	//
	// With Far set, each slot selects exact or far-field resolution from
	// its live sender count: a slot with fewer than AdaptiveCrossover
	// senders decodes exactly (sparse slots cost O(n·|txs|), below the
	// plan's accumulation + walk overhead), a denser slot decodes through
	// the plan. The choice depends only on |txs|, so runs stay
	// deterministic and worker-count independent; each slot is
	// bit-identical to an engine forced to that slot's mode.
	Far *sinr.QuadTree
	// AdaptiveCrossover overrides the calibrated sender-count crossover
	// (DefaultAdaptiveCrossover) from which a slot resolves far-field.
	// Zero selects the default; 1 sends every non-empty slot through the
	// plan.
	AdaptiveCrossover int

	// forceFar, when set (tests only), overrides per-slot mode selection:
	// the slot resolves far-field iff it returns true (and Far is set
	// with a non-empty sender set). It is the replay hook the adaptive
	// drift gate uses to pin "adaptive run ≡ forcing the chosen mode per
	// slot" bit for bit.
	forceFar func(slot, senders int) bool
	// forceFan, when set (tests only), overrides whether a stage of a
	// pooled engine fans out: it receives the stage, its work (live nodes
	// for a step, |lis|·|txs| for a decode) and the floors' verdict, and
	// returns the decision to take.
	forceFan func(st stage, work int, fan bool) bool
	// noListenGate, when set (tests only), decodes every listener of a
	// ranged slot, leaving the range to finishDecode alone: the reference
	// the gate is checked against.
	noListenGate bool
	// noAddrGate, when set (tests only), decodes every addressed listener,
	// leaving the address check to finishDecode alone: the reference the
	// address gate is checked against.
	noAddrGate bool
	// noHold, when set (tests only), steps every live node in every slot,
	// declared action or not, and panics when a step on an empty inbox
	// returns anything but the action its previous slot declared: the
	// reference held actions are checked against.
	noHold bool
	// forceGate, when set (tests only), overrides whether a ranged slot
	// gates its listeners on the cell grid rather than by comparing each
	// with every sender: it receives the slot's senders, its candidate
	// listeners and the rule's verdict, and returns the decision to take.
	forceGate func(senders, listeners int, grid bool) bool
	// forcePrune, when set (tests only), overrides whether an exact slot
	// runs the decode pre-pass (prune.go): it receives the rule's verdict
	// and returns the decision to take. A slot whose senders the grid
	// cannot split still falls back.
	forcePrune func(prune bool) bool
	// afterSlot, when set (tests only), runs on the engine goroutine after
	// every slot, after the Observer: the hook the held-action
	// differential reads every node's inbox through.
	afterSlot func(*Engine)
}

// stepFanOutMin is the live-node count from which stage 1 (protocol
// steps) fans out to the pool; below it, a pool round trip costs more than
// the steps it splits. Fitted with BenchmarkEngineSlot on a 2-vCPU Xeon
// VM (GOMAXPROCS 2, two workers, medians of 5 runs, each node drawing
// once from a fresh stream per step): a step slot took 23.6 µs inline vs
// 29.6 µs fanned out at 512 live nodes, 46.2 vs 52.5 at 1024, 103.6 vs
// 94.0 at 2048, 237 vs 184 at 4096 and 428 vs 341 at 8192.
const stepFanOutMin = 2048

// decodeFanOutMin is the exact decode work |lis|·|txs|, counted after the
// address and listen gates, from which stage 3 fans out to the pool. Far
// slots always fan out: each listener walks the plan, which costs far more
// than a pair.
// Fitted from the same BenchmarkEngineSlot sweep (slot times with the
// steps inline, inline vs fanned-out decode): at 1024 live nodes and the
// gain table, 75.1 vs 78.4 µs at ~4k pairs, 87.9 vs 97.0 at ~8k, 150.9 vs
// 137.9 at ~16k and 293.7 vs 244.2 at ~64k; at 4096 live nodes, 265.6 vs
// 305.4 at ~8k, 252.0 vs 258.7 at ~16k, 310.5 vs 279.1 at ~32k and 414.7
// vs 330.2 at ~64k, and on the fly 310.7 vs 308.3 at ~8k, 326 vs 330 at
// ~16k, 375 vs 341 at ~32k and 545 vs 453 at ~64k.
const decodeFanOutMin = 16384

// DefaultAdaptiveCrossover is the calibrated sender count above which a
// slot is cheaper through the far-field plan than exact. Below it, exact
// decode costs |listeners|·|txs| direct gains, which undercuts the plan's
// per-listener walk floor: with S spread-out senders the walk must still
// reach each occupied region (≈ O(S · levels) visits at a several-fold
// higher per-visit cost than a gain multiply), so aggregation only pays
// once nodes hold many senders each. Measured on the jittered-grid bench
// geometry with uniformly spread senders (BenchmarkAdaptiveCrossover,
// BENCH_quadtree.json), and re-measured after the Morton relayout: at
// n = 65536 the exact and quadtree per-slot curves still cross between
// 512 and 1024 senders at ε = 0.5 and ε = 2.5 alike
// (ε = 0.5: 268 ms exact vs 282 ms quad at S = 512, 456 vs 345 at
// S = 1024), and the crossing count is only weakly n-dependent (both
// sides scale with the listener count; the walk adds one pyramid level
// per 4× n). 768 sits between the two measured crossings, deliberately
// toward the exact side — exact slots are also error-free.
//
// Re-measured at n = 16384 (-short) on a 2-CPU box after the packed node
// records, child masks and inlined path loss, which sped up both sides by
// different factors (BENCH_quadtree.json, slot_kernels): exact, which
// computes path loss on the fly at this n, now stays cheaper up to about
// S = 4096 at ε = 0.5 (up from between 1024 and 2048), while at ε = 2.5
// the crossing stays between 256 and 512. The constant is unchanged:
// moving it moves slots between modes and so changes results.
const DefaultAdaptiveCrossover = 768

// Stats counts engine activity for experiment reporting. Deliveries,
// Collisions and Dropped count only the receptions a protocol reads. Under
// a listen range (Engine.SetListenRange) a listener whose strongest sender
// is out of range adds to none of them, since its protocol would discard
// what it heard. Likewise an addressed listener (ListenAddressed) adds to
// none of them unless its strongest sender addresses it, and a saturated
// channel, which has no strongest sender, adds nothing for it either.
type Stats struct {
	Slots         int     // slots executed
	Transmissions int     // transmit actions observed
	Deliveries    int     // messages successfully delivered
	Collisions    int     // listener slots with audible signal but no decode
	Dropped       int     // deliveries removed by failure injection
	Energy        float64 // total transmission energy (sum of powers × slots)
}

// SlotEvent is handed to an Observer after each slot.
type SlotEvent struct {
	// Slot is the slot index that just executed.
	Slot int
	// Senders is the number of concurrent transmitters.
	Senders int
	// Deliveries is the number of successful decodes that reached an
	// inbox: under a listen range, only those from a sender in range, and
	// at an addressed listener only those addressed to it.
	Deliveries int
	// Far reports that the slot resolved through the far-field plan
	// (always false on exact engines; on far-field engines it records the
	// per-slot mode choice, which the drift gate replays).
	Far bool
}

// Observer receives a SlotEvent after every slot. Observers run on the
// engine goroutine; they must not call back into the engine.
type Observer func(SlotEvent)

// shard holds one worker's slot counters, padded to a cache line so
// concurrent workers never contend on the same line. The shards are summed
// (in worker order, all integers) after the parallel section, so totals are
// identical to the old mutex-guarded counters.
type shard struct {
	delivered int
	collided  int
	dropped   int
	_         [40]byte
}

// listenAcc is one listener's running exact decode: the received power
// summed over the senders seen so far, the strongest of them, and whether
// a co-located sender saturated the channel.
type listenAcc struct {
	total, bestRP float64
	best          int32 // index into txs; -1 until a sender is audible
	sat           bool
}

// add folds sender k, transmitting at power p with gain g to this
// listener, into the accumulator. Senders must arrive in txs order: that
// fixes the float sum and makes the first of two equally strong senders
// the winner.
func (a *listenAcc) add(k int, p, g float64) {
	if math.IsInf(g, 1) {
		// A co-located sender (only possible with duplicate points)
		// saturates the channel; nothing is decodable.
		a.sat = true
		return
	}
	rp := float64(p * g) // rounded: never fused into the sum below
	a.total += rp
	if rp > a.bestRP {
		a.bestRP = rp
		a.best = int32(k)
	}
}

// Engine drives a set of per-node protocols over a shared SINR channel.
type Engine struct {
	inst  *sinr.Instance
	procs []Protocol
	// live lists the nodes with a non-nil protocol that have neither left
	// nor are held, ascending. The stages step, collect senders and decode
	// over it instead of 0..n; ascending order keeps the sender set, the
	// energy sum and decode ties exactly as a scan of every node would
	// produce them.
	live    []int32
	held    heldSet
	cfg     Config
	stats   Stats
	slot    int
	inboxes [][]Delivery
	next    [][]Delivery
	actions []Action
	txs     []sinr.Tx
	lis     []int32     // the slot's listeners, ascending; collected with txs
	acc     []listenAcc // exact decode state of lis[j], at acc[j]

	// The exact decode's pre-pass (prune.go): pruned reports that the
	// current exact slot filed its senders into grid, and a decode shard
	// over lis[lo:hi] lists the listeners the pre-pass leaves to the full
	// sum at cand[lo:]. Both are sized at the engine's first pruned slot.
	grid   senderGrid
	pruned bool
	cand   []int32

	// Addressed listening (ListenAddressed): addrStamp[v] == addrEpoch iff
	// a sender of the current slot addresses node v. Stamped only in slots
	// with an addressed listener and a sender.
	addrStamp []uint32
	addrEpoch uint32

	// Listen range (SetListenRange): 0 keeps every delivery, r > 0 only
	// those from a sender closer than r. gate drops, before decode, the
	// listeners that cannot hear a sender in range.
	listenRange float64
	gate        listenGate

	// Physics-kernel state hoisted out of the slot loop.
	beta       float64
	noise      float64
	pl         sinr.PathLoss
	gains      []float64 // gain table, symmetric; nil if over memory budget
	gainStride int       // row stride of gains (sinr.Instance.GainTableStride)

	// Far-field approximation state (nil in exact mode). The scratch is
	// engine-private: Accumulate fills it serially each slot, the parallel
	// decode stage only reads it (Resolve keeps its walk state on the
	// goroutine stack, so workers share the scratch).
	far       *sinr.QuadTree
	farScr    *sinr.QuadScratch
	crossover int
	farSlot   bool // current slot resolves far-field (set serially in Step)

	shards  []shard
	pool    *Pool // nil when every stage runs on the engine goroutine
	stageWG sync.WaitGroup
}

// NewEngine creates an engine over instance inst with one protocol per node.
// len(procs) must equal inst.Len(). A nil entry is a node that idles in
// every slot: the engine indexes the non-nil entries once, here, and its
// slot loop steps and decodes only those (less the ones that have left),
// so an idle node costs nothing per slot. The engine fans its large stages
// out to Config.Pool when that has more than one worker and runs them on
// its own goroutine otherwise; it starts no goroutines of its own, so it
// holds nothing to release when dropped.
func NewEngine(inst *sinr.Instance, procs []Protocol, cfg Config) (*Engine, error) {
	if len(procs) != inst.Len() {
		return nil, fmt.Errorf("sim: %d protocols for %d nodes", len(procs), inst.Len())
	}
	if !(cfg.DropProb >= 0 && cfg.DropProb < 1) {
		return nil, fmt.Errorf("sim: drop probability %v outside [0,1)", cfg.DropProb)
	}
	n := inst.Len()
	p := inst.Params()
	e := &Engine{
		inst:    inst,
		procs:   procs,
		cfg:     cfg,
		inboxes: make([][]Delivery, n),
		next:    make([][]Delivery, n),
		actions: make([]Action, n),
		beta:    p.Beta,
		noise:   p.Noise,
		pl:      sinr.NewPathLoss(p.Alpha),
	}
	for i, proc := range procs {
		if proc == nil {
			e.actions[i] = Idle()
			continue
		}
		e.live = append(e.live, int32(i))
	}
	if cfg.Far != nil {
		if cfg.Far.Instance() != inst {
			return nil, fmt.Errorf("sim: far-field plan built from a different instance")
		}
		e.far = cfg.Far
		e.farScr = cfg.Far.NewScratch()
		e.crossover = cfg.AdaptiveCrossover
		if e.crossover <= 0 {
			e.crossover = DefaultAdaptiveCrossover
		}
		// Exact slots on a far-field engine decode with on-the-fly path
		// loss (bit-identical to table entries): a far-field session exists
		// to avoid the O(n²) table, and sparse slots don't need it.
	} else {
		// The gain table only pays off on the exact path; far-field mode
		// targets instances past its memory bound.
		e.gains, e.gainStride = inst.GainTableStride()
	}
	if cfg.Pool != nil && cfg.Pool.Workers() > 1 {
		e.pool = cfg.Pool
		e.shards = make([]shard, cfg.Pool.Workers())
	} else {
		e.shards = make([]shard, 1)
	}
	e.lis = make([]int32, 0, len(e.live))
	e.acc = make([]listenAcc, len(e.live))
	e.addrStamp = make([]uint32, n)
	return e, nil
}

// Stats returns a copy of the engine's counters.
func (e *Engine) Stats() Stats { return e.stats }

// Live returns the number of nodes with a non-nil protocol that have not
// returned Leave, held ones included.
func (e *Engine) Live() int { return len(e.live) + len(e.held.nodes) }

// Step executes one slot: gather actions, resolve the channel, deliver.
//
//sinr:hotpath
func (e *Engine) Step() {
	// Fault site sim.slot.slow: stall the whole slot. Timing only — the
	// slot's schedule and stats are untouched, so replays stay
	// bit-identical.
	if e.cfg.Injector != nil {
		if act, ok := e.cfg.Injector.Fire(faults.SimSlotSlow); ok {
			time.Sleep(act.Delay)
		}
	}

	// Stage 1: step every live protocol with its inbox, fanned out over
	// the pool when there are enough of them. Held nodes are not visited.
	if e.fanOut(stageStep, len(e.live)) {
		e.pool.dispatch(e, stageStep)
	} else {
		e.stepRange(0, len(e.live))
	}

	// Stage 2: collect the sender set and the listeners, in ascending node
	// order, and drop from live in place (which keeps it ascending) the
	// nodes that left and those that start holding, which the held set
	// takes below.
	e.txs = e.txs[:0]
	e.lis = e.lis[:0]
	kept, addressed := 0, 0
	for _, i := range e.live {
		a := &e.actions[i]
		switch a.Kind {
		case ActionTransmit:
			e.txs = append(e.txs, sinr.Tx{Sender: int(i), Power: a.Power})
			e.stats.Energy += a.Power
		case ActionListen:
			e.lis = append(e.lis, i)
		case ActionListenAddressed:
			e.lis = append(e.lis, i)
			addressed++
		case ActionLeave:
			continue
		}
		if a.Hold && !e.cfg.noHold {
			e.held.holding = append(e.held.holding, i)
			continue
		}
		e.live[kept] = i
		kept++
	}
	if len(e.held.holding) > 0 && e.held.at == nil {
		e.held.init(len(e.procs), len(e.live))
	}
	e.live = e.live[:kept]
	e.stats.Transmissions += len(e.txs)

	// Drop the addressed listeners no sender addresses, then, under a
	// listen range, the listeners with no sender in range. Then add the
	// held nodes that can receive. None of this touches txs, so the mode
	// choice below is the same with or without the gates.
	if len(e.txs) > 0 {
		if addressed > 0 && !e.cfg.noAddrGate {
			e.gateAddressed()
		}
		hl := e.held.listening(e.slot)
		if e.listenRange > 0 && !e.cfg.noListenGate && (len(e.lis) > 0 || hl > 0) {
			e.readyGate(len(e.lis) + hl)
			if len(e.lis) > 0 {
				e.gateListeners()
			}
		}
		if hl > 0 {
			e.listenHeld()
		}
	}
	for _, i := range e.held.holding {
		e.hold(i)
	}
	e.held.holding = e.held.holding[:0]

	// Stage 2.5 (far-field mode): pick the slot's resolution mode, then one
	// serial O(#senders) pass folds the sender set into the plan's
	// aggregates for the parallel decode stage. Sparse slots stay exact —
	// below the crossover the plan's accumulation and per-listener walk
	// floor cost more than |listeners|·|txs| direct gains — and the choice
	// reads only |txs|, so it is deterministic and worker-count
	// independent. A slot left with no listener skips the fold.
	e.farSlot = e.far != nil && len(e.txs) >= e.crossover // crossover ≥ 1
	if e.far != nil && e.cfg.forceFar != nil {
		e.farSlot = e.cfg.forceFar(e.slot, len(e.txs)) && len(e.txs) > 0
	}
	if e.farSlot && len(e.lis) > 0 {
		e.farScr.Accumulate(e.txs)
	}
	// Stage 2.5 (exact slots with many senders): file the senders into the
	// pre-pass's grid, serially, for the decode shards to walk.
	e.pruned = !e.farSlot && len(e.txs) > 0 && len(e.lis) > 0 && e.prunes()

	// Stage 3: decode at every listener left. Each listener decodes the
	// strongest sender if its SINR clears β. Counters land in per-worker
	// shards; no lock is taken. Exact slots decode sender-major, streaming
	// each sender's gain row across the listeners (decodeExact); far slots
	// walk the plan once per listener (decodeListenerFar). A stage that
	// fans out gives each worker a contiguous share of lis.
	if len(e.txs) > 0 && len(e.lis) > 0 {
		if e.fanOut(stageDecode, len(e.lis)*len(e.txs)) {
			e.pool.dispatch(e, stageDecode)
		} else {
			e.decodeRange(0, len(e.lis), &e.shards[0])
		}
	}
	var delivered int
	for k := range e.shards {
		sh := &e.shards[k]
		delivered += sh.delivered
		e.stats.Collisions += sh.collided
		e.stats.Dropped += sh.dropped
		sh.delivered, sh.collided, sh.dropped = 0, 0, 0
	}
	e.stats.Deliveries += delivered
	if delivered > 0 && len(e.held.nodes) > 0 {
		e.wake()
	}

	// Stage 4: swap inboxes and notify.
	e.inboxes, e.next = e.next, e.inboxes
	slot := e.slot
	e.slot++
	e.stats.Slots++
	if e.cfg.Observer != nil {
		e.cfg.Observer(SlotEvent{
			Slot:       slot,
			Senders:    len(e.txs),
			Deliveries: delivered,
			Far:        e.farSlot,
		})
	}
	if e.cfg.afterSlot != nil {
		e.cfg.afterSlot(e)
	}
}

// gateAddressed drops from lis, which stays ascending, every addressed
// listener that no sender of the slot addresses. Whatever such a listener
// decodes is addressed to another node, so finishDecode would discard it
// without counting it. One pass over txs stamps each addressee, one pass
// over lis keeps the unaddressed listeners and the stamped ones.
//
//sinr:hotpath
func (e *Engine) gateAddressed() {
	// A run can outlast 2³² stamped slots only in theory; the stamps
	// restart from zero then.
	if e.addrEpoch == math.MaxUint32 {
		clear(e.addrStamp)
		e.addrEpoch = 0
	}
	e.addrEpoch++
	ep, stamp := e.addrEpoch, e.addrStamp
	for _, t := range e.txs {
		if to := e.actions[t.Sender].Msg.To; to >= 0 && to < len(stamp) {
			stamp[to] = ep
		}
	}
	kept := 0
	for _, v := range e.lis {
		if e.actions[v].Kind == ActionListenAddressed && stamp[v] != ep {
			continue
		}
		e.lis[kept] = v
		kept++
	}
	e.lis = e.lis[:kept]
}

// fanOut reports whether stage st, with the given work, runs on the pool
// rather than on the engine goroutine: steps from stepFanOutMin live
// nodes, decodes of a far slot always and of an exact slot from
// decodeFanOutMin listener–sender pairs.
func (e *Engine) fanOut(st stage, work int) bool {
	if e.pool == nil {
		return false
	}
	fan := work >= stepFanOutMin
	if st == stageDecode {
		fan = e.farSlot || work >= decodeFanOutMin
	}
	if e.cfg.forceFan != nil {
		return e.cfg.forceFan(st, work, fan)
	}
	return fan
}

// stepRange runs stage 1 for the live nodes live[lo:hi]. A node whose
// inbox is empty and whose last action declared its next one (Then) takes
// that action without being stepped; every other node is stepped. A live
// node's last action holds (Hold) only without the held set (noHold) or
// when a delivery woke it, and then its inbox is not empty.
//
//sinr:hotpath
func (e *Engine) stepRange(lo, hi int) {
	slot, actions, inboxes, next := e.slot, e.actions, e.inboxes, e.next
	for _, i := range e.live[lo:hi] {
		a, inbox := &actions[i], inboxes[i]
		if len(next[i]) > 0 {
			next[i] = next[i][:0]
		}
		if a.Then != 0 && len(inbox) == 0 {
			if e.cfg.noHold {
				e.stepDeclared(int(i))
			} else {
				*a = Action{Kind: a.Then}
			}
			continue
		}
		*a = e.procs[i].Step(slot, inbox)
		if a.Then != 0 || a.Hold {
			checkDeclared(int(i), a)
		}
	}
}

// stepDeclared steps node i, whose inbox is empty and whose last action
// declared its next one, as an engine without held actions would, and
// panics unless the step returns exactly the declared action (noHold).
func (e *Engine) stepDeclared(i int) {
	a := &e.actions[i]
	want := a.held()
	*a = e.procs[i].Step(e.slot, e.inboxes[i])
	if a.Then != 0 || a.Hold {
		checkDeclared(i, a)
	}
	if *a != want {
		panic(fmt.Sprintf("sim: node %d stepped to %+v in slot %d on an empty inbox, but declared %+v",
			i, *a, e.slot, want))
	}
}

// held returns the action a declares for the node's next slot on an empty
// inbox: a itself with Kind and Then swapped under Hold, Action{Kind:
// a.Then} otherwise. Only meaningful when a.Then is set.
func (a *Action) held() Action {
	if a.Hold {
		h := *a
		h.Kind, h.Then = a.Then, a.Kind
		return h
	}
	return Action{Kind: a.Then}
}

// checkDeclared panics, naming node i, on a declaration the engine cannot
// take in place of a step: a Then other than Idle, Listen or
// ListenAddressed, a Hold without a Then, or a held Transmit or Leave.
func checkDeclared(i int, a *Action) {
	quiet := func(k ActionKind) bool {
		return k == ActionIdle || k == ActionListen || k == ActionListenAddressed
	}
	switch {
	case a.Then != 0 && !quiet(a.Then):
		panic(fmt.Sprintf("sim: node %d declared Then %s: only Idle, Listen or ListenAddressed can be declared", i, a.Then))
	case a.Hold && a.Then == 0:
		panic(fmt.Sprintf("sim: node %d set Hold without Then", i))
	case a.Hold && !quiet(a.Kind):
		panic(fmt.Sprintf("sim: node %d holds a %s action: only Idle, Listen or ListenAddressed can be held", i, a.Kind))
	}
}

// decodeRange runs stage 3 for the listeners lis[lo:hi], accumulating
// counters into sh. In a pruned slot the pre-pass settles what it can and
// lists the rest, still ascending, for the full sum, which then computes
// its gains on the fly when they are sparse (pruneSparse).
//
//sinr:hotpath
func (e *Engine) decodeRange(lo, hi int, sh *shard) {
	if e.farSlot {
		for _, i := range e.lis[lo:hi] {
			e.decodeListenerFar(int(i), sh)
		}
		return
	}
	lis, onTheFly := e.lis[lo:hi], e.gains == nil
	if e.pruned {
		cand, m := e.cand[lo:hi], 0
		for _, v := range lis {
			if !e.settle(v, sh) {
				cand[m] = v
				m++
			}
		}
		lis = cand[:m]
		onTheFly = onTheFly || m*pruneSparse < len(e.procs)
	}
	e.decodeExact(lis, e.acc[lo:lo+len(lis)], onTheFly, sh)
}

// decodeExact resolves reception at the listeners lis, with accumulators
// acc, sender-major: for each sender in txs order, one pass over the
// listeners reads the sender's gain row at the listeners' columns, folding
// the received power into each listener's accumulator. The table is
// symmetric bit for bit
// (gain[s·stride+v] == gain[v·stride+s]), so with ascending listeners a row
// read streams through contiguous memory; scanning each listener's own row at
// the senders' columns instead would fetch one cache line per (listener,
// sender) pair. Every listener still sees the senders in txs order, so its
// sum, its winner and its saturation verdict are the ones a listener-major
// scan computes. The strongest sender is decoded iff its SINR ≥ β; its
// distance (for Delivery.Dist) is computed once, only for an actual
// delivery. With onTheFly set, as it always is without a table, it
// computes each gain from the points instead.
//
//sinr:hotpath
func (e *Engine) decodeExact(lis []int32, acc []listenAcc, onTheFly bool, sh *shard) {
	for j := range acc {
		acc[j] = listenAcc{best: -1}
	}
	n := len(e.procs)
	for k := range e.txs {
		t := &e.txs[k]
		if !onTheFly {
			off := t.Sender * e.gainStride
			row := e.gains[off : off+n]
			for j, v := range lis {
				acc[j].add(k, t.Power, row[v])
			}
			continue
		}
		// On-the-fly path loss: bit-identical to a table entry (the same
		// squared distance as DistSq, products rounded before the sum,
		// sender minus listener, through the same PowAlphaSq arm), and —
		// unlike Instance.Gain — never forces the O(n²) table build a
		// far-field engine avoids.
		pts, pl := e.inst.Points(), e.pl
		ps := pts[t.Sender]
		for j, v := range lis {
			dx := ps.X - pts[v].X
			dy := ps.Y - pts[v].Y
			acc[j].add(k, t.Power, 1/pl.Sq(float64(dx*dx)+float64(dy*dy)))
		}
	}
	for j, v := range lis {
		switch a := &acc[j]; {
		case a.sat:
			e.saturated(int(v), sh)
		case a.best >= 0: // else no audible signal (all senders at zero power)
			e.finishDecode(int(v), int(a.best), a.bestRP, a.total, sh)
		}
	}
}

// decodeListenerFar resolves reception at listener i through the far-field
// plan: the winner and its received power are exact (the plan refines any
// aggregate that could hide the strongest sender), the interference total
// is approximate within the plan's certified ε, and everything downstream —
// the β cut, drop injection, delivery bookkeeping — is the shared exact
// tail.
//
//sinr:hotpath
func (e *Engine) decodeListenerFar(i int, sh *shard) {
	best, bestRP, total, saturated := e.farScr.Resolve(i)
	if saturated {
		// A co-located sender drowns the channel, exactly as in exact mode.
		e.saturated(i, sh)
		return
	}
	if best < 0 {
		return
	}
	e.finishDecode(i, best, bestRP, total, sh)
}

// saturated counts a channel that a co-located sender drowns at listener
// i as a collision, unless i listens addressed: a drowned channel has no
// strongest sender, so nothing addressed to i was heard, and like any
// reception not addressed to it, the slot counts nowhere. That keeps the
// counters independent of the address gate.
//
//sinr:hotpath
func (e *Engine) saturated(i int, sh *shard) {
	if e.actions[i].Kind != ActionListenAddressed {
		sh.collided++
	}
}

// finishDecode is the decode tail shared by the exact and far-field paths:
// the address check, the listen range, the β cut on the winner's SINR,
// drop injection, and delivery bookkeeping. best indexes e.txs; total is
// the full received power including the winner's. At an addressed listener
// a winner addressed to another node, and under a listen range a winner at
// distance ≥ range, ends the reception before anything is counted, so a
// listener a gate dropped and one it kept but whose winner fails the same
// test leave the same trace: none.
//
//sinr:hotpath
func (e *Engine) finishDecode(i, best int, bestRP, total float64, sh *shard) {
	tx := e.txs[best]
	if e.actions[i].Kind == ActionListenAddressed && e.actions[tx.Sender].Msg.To != i {
		return
	}
	dist := -1.0 // computed only when needed: for a range or a delivery
	if e.listenRange > 0 {
		if dist = e.inst.Dist(tx.Sender, i); !(dist < e.listenRange) {
			return
		}
	}
	sinrVal := bestRP / (e.noise + (total - bestRP))
	if sinrVal < e.beta {
		sh.collided++
		return
	}
	if e.cfg.DropProb > 0 && dropCoin(e.cfg.Seed, e.slot, i) < e.cfg.DropProb {
		sh.dropped++
		return
	}
	if dist < 0 {
		dist = e.inst.Dist(tx.Sender, i)
	}
	e.next[i] = append(e.next[i], Delivery{
		Msg:  e.actions[tx.Sender].Msg,
		Dist: dist,
		SINR: sinrVal,
		Slot: e.slot,
	})
	sh.delivered++
}

// RunCtx executes up to n slots, checking ctx before every slot. It
// returns the number of slots executed and ctx's error if the context was
// canceled or its deadline passed. Cancellation lands between slots, so
// the engine is left in a consistent state and remains usable (stats,
// inboxes, and the worker pool are intact).
func (e *Engine) RunCtx(ctx context.Context, n int) (int, error) {
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return i, err
		}
		e.Step()
	}
	return n, nil
}

// dropCoin returns a deterministic pseudo-uniform value in [0,1) derived
// from (seed, slot, node) with a splitmix64 finalizer, so drop injection is
// reproducible and independent of worker scheduling.
func dropCoin(seed int64, slot, node int) float64 {
	x := uint64(seed) ^ (uint64(slot)+1)*0x9E3779B97F4A7C15 ^ (uint64(node)+1)*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}
