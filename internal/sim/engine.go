package sim

import (
	"context"
	"fmt"
	"math"
	"runtime"
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
	// ActionIdle: the node neither transmits nor listens (it has left the
	// protocol). Idle nodes cost nothing in the physics computation.
	ActionIdle ActionKind = iota + 1
	// ActionListen: the node listens and may receive one message.
	ActionListen
	// ActionTransmit: the node transmits Msg with power Power. Transmitting
	// nodes cannot receive in the same slot (half-duplex).
	ActionTransmit
)

// Action is a protocol's decision for one slot.
type Action struct {
	Kind  ActionKind
	Power float64
	Msg   Message
}

// Idle returns the idle action.
func Idle() Action { return Action{Kind: ActionIdle} }

// Listen returns the listen action.
func Listen() Action { return Action{Kind: ActionListen} }

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
// most nodes nothing to do costs only what its live nodes cost.
type Protocol interface {
	Step(slot int, inbox []Delivery) Action
}

// Config tunes the engine.
type Config struct {
	// Workers is the number of goroutines stepping nodes and decoding
	// listeners. Zero means runtime.NumCPU().
	Workers int
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
	// each pool job — see internal/faults). Firing only stalls: injected
	// delays never change schedules or stats, so a fault-free replay of
	// the same seed is bit-identical to an engine without an injector.
	Injector faults.Injector
	// Pool, if non-nil, is a shared worker pool the engine dispatches its
	// parallel stages on instead of spawning its own. The engine does not
	// own a shared pool: Close leaves it running, so a session handle
	// (sinrconn.Network) can reuse one pool across many engine lifetimes
	// and across concurrent engines. When Pool is nil the engine spawns a
	// private pool sized by Workers (the pre-session behavior).
	Pool *Pool
	// FarField, if non-nil, switches channel resolution to a far-field
	// approximation plan — the flat tile grid (*sinr.FarField) or the
	// hierarchical quadtree (*sinr.QuadTree): per slot, senders are
	// aggregated spatially and a listener resolves distant senders by
	// centroid mass instead of sender by sender, within the plan's
	// certified relative error. The decoded winner and its received power
	// stay exact (both plans refine any aggregate that could hide the
	// strongest sender); only Delivery.SINR carries the ε bound. The plan
	// must be built from the engine's own Instance. Nil means exact
	// resolution — bit-identical to the pre-far-field engine.
	FarField sinr.Far
	// Adaptive, with FarField set, selects exact or far-field resolution
	// per slot from the live sender count: a slot with fewer than the
	// crossover's senders decodes exactly (sparse slots cost O(n·|txs|),
	// below the plan's accumulation + walk overhead), a denser slot decodes
	// through the plan. The choice depends only on |txs|, so runs stay
	// deterministic and worker-count independent; each slot is bit-identical
	// to an engine forced to that slot's mode.
	Adaptive bool
	// AdaptiveCrossover overrides the calibrated sender-count crossover
	// (DefaultAdaptiveCrossover) above which an adaptive slot resolves
	// far-field. Zero selects the default.
	AdaptiveCrossover int
	// NoFarBatch disables the shared-frontier batched decode on far-field
	// plans that support it (the quadtree), forcing the per-listener Resolve
	// walk instead. The two paths are bit-identical
	// (TestListenerBatchDriftGate); the knob exists for that gate's replay
	// and for the E20 ablation, not for production tuning.
	NoFarBatch bool

	// forceFar, when set (tests only), overrides per-slot mode selection:
	// the slot resolves far-field iff it returns true (and FarField is set
	// with a non-empty sender set). It is the replay hook the adaptive
	// drift gate uses to pin "adaptive run ≡ forcing the chosen mode per
	// slot" bit for bit.
	forceFar func(slot, senders int) bool
}

// DefaultAdaptiveCrossover is the calibrated sender count above which a
// slot is cheaper through the far-field plan than exact. Below it, exact
// decode costs |listeners|·|txs| direct gains, which undercuts the plan's
// per-listener walk floor: with S spread-out senders the walk must still
// reach each occupied region (≈ O(S · levels) visits at a several-fold
// higher per-visit cost than a gain multiply), so aggregation only pays
// once nodes hold many senders each. Measured on the jittered-grid bench
// geometry with uniformly spread senders (BenchmarkAdaptiveCrossover,
// BENCH_quadtree.json), and re-measured after the Morton relayout and
// batched decode: at n = 65536 the exact and quadtree per-slot curves
// still cross between 512 and 1024 senders at ε = 0.5 and ε = 2.5 alike
// (ε = 0.5: 268 ms exact vs 282 ms quad at S = 512, 456 vs 345 at
// S = 1024), and the crossing count is only weakly n-dependent (both
// sides scale with the listener count; the walk adds one pyramid level
// per 4× n). 768 sits between the two measured crossings, deliberately
// toward the exact side — exact slots are also error-free.
const DefaultAdaptiveCrossover = 768

// Stats counts engine activity for experiment reporting.
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
	// Deliveries is the number of successful decodes.
	Deliveries int
	// Far reports that the slot resolved through the far-field plan
	// (always false on exact engines; on adaptive engines it records the
	// per-slot mode choice, which the drift gate replays).
	Far bool
}

// Observer receives a SlotEvent after every slot. Observers run on the
// engine goroutine; they must not call back into the engine.
type Observer func(SlotEvent)

// shardedAccumMinTxs is the sender count above which a slot's pyramid
// accumulation is dispatched across the pool as shards instead of running
// serially. Below it the per-dispatch synchronization (two channel rounds
// plus a WaitGroup) costs more than the fold it parallelizes. The sharded
// result is bit-identical to the serial one
// (TestShardedAccumulateDeterminism), so the threshold only moves time,
// never output. A var only so the engine drift test can force the sharded
// path at test scale.
var shardedAccumMinTxs = 2048

// farSharder is the optional sharded-accumulation face of a far-field
// resolver (implemented by the quadtree scratch): AccumBegin/AccumShard×k/
// AccumFinish replaces Accumulate with a pool-parallel fold whose result is
// bit-identical.
type farSharder interface {
	AccumShards() int
	AccumBegin([]sinr.Tx)
	AccumShard(int, []sinr.Tx)
	AccumFinish()
}

// farBatchPlanner is the optional listener-batching face of a far-field
// plan (implemented by *sinr.QuadTree): BatchSpec orders the nodes by
// shared-frontier predicate class, NewBatchState allocates walk state for
// one concurrent ResolveBatch user.
type farBatchPlanner interface {
	BatchSpec() (order, class []int32)
	NewBatchState() *sinr.BatchState
}

// farBatchResolver is the resolver half of listener batching: ResolveBatch
// resolves a same-class run of listeners through one shared frontier,
// bit-identical to per-listener Resolve.
type farBatchResolver interface {
	ResolveBatch(*sinr.BatchState, []int32, sinr.BatchSink)
}

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
	rp := p * g
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
	// live lists the nodes with a non-nil protocol, ascending. The stages
	// step, collect senders and decode over it instead of 0..n; ascending
	// order keeps the sender set, the energy sum and decode ties exactly as
	// a scan of every node would produce them.
	live    []int32
	cfg     Config
	stats   Stats
	slot    int
	inboxes [][]Delivery
	next    [][]Delivery
	actions []Action
	txs     []sinr.Tx
	lis     []int32     // the slot's listeners, ascending; collected with txs
	acc     []listenAcc // exact decode state of lis[j], at acc[j]

	// Physics-kernel state hoisted out of the slot loop.
	beta  float64
	noise float64
	alpha float64
	gains []float64 // n×n gain table, symmetric; nil if over memory budget

	// Far-field approximation state (nil in exact mode). The resolver is
	// engine-private: Accumulate fills it serially each slot, the parallel
	// decode stage only reads it (both plans keep per-listener walk state
	// on the goroutine stack).
	far       sinr.Far
	farScr    sinr.FarResolver
	adaptive  bool
	crossover int
	farSlot   bool // current slot resolves far-field (set serially in Step)

	// Sharded accumulation (nil unless farScr supports it and a pool
	// exists): dense slots fold the pyramid across the pool.
	farShard farSharder
	// Listener batching (nil unless the plan supports it and Config.
	// NoFarBatch is unset): far slots decode through shared frontiers.
	// farOrder/farClass are the plan's static batch spec; farVs/farB are
	// the slot's listening nodes in batch order and the class-run starts
	// into farVs (with a trailing sentinel), rebuilt serially each far
	// slot; farBS/farSinks hold one walk state and counter sink per
	// worker.
	farBatch farBatchResolver
	farOrder []int32
	farClass []int32
	farVs    []int32
	farB     []int32
	farBS    []*sinr.BatchState
	farSinks []farSink

	shards  []shard
	pool    *Pool // nil when the engine runs serially
	ownPool bool  // the engine spawned pool itself and must close it
	stageWG sync.WaitGroup
}

// NewEngine creates an engine over instance inst with one protocol per node.
// len(procs) must equal inst.Len(). A nil entry is a node that idles in
// every slot: the engine indexes the non-nil entries once, here, and its
// slot loop steps and decodes only those, so an idle node costs nothing per
// slot. Engines whose live set is large enough to parallelize dispatch on
// Config.Pool when one is provided, otherwise they spawn a private worker
// pool; call Close when done with an engine to release a private pool's
// goroutines (Close is always safe to call and never touches a shared
// pool).
func NewEngine(inst *sinr.Instance, procs []Protocol, cfg Config) (*Engine, error) {
	if len(procs) != inst.Len() {
		return nil, fmt.Errorf("sim: %d protocols for %d nodes", len(procs), inst.Len())
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.DropProb < 0 || cfg.DropProb >= 1 {
		if cfg.DropProb != 0 {
			return nil, fmt.Errorf("sim: drop probability %v outside [0,1)", cfg.DropProb)
		}
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
		alpha:   p.Alpha,
	}
	for i, proc := range procs {
		if proc == nil {
			e.actions[i] = Idle()
			continue
		}
		e.live = append(e.live, int32(i))
	}
	live := len(e.live)
	var batchPlan farBatchPlanner
	if cfg.FarField != nil {
		if cfg.FarField.Instance() != inst {
			return nil, fmt.Errorf("sim: far-field plan built from a different instance")
		}
		e.far = cfg.FarField
		e.farScr = cfg.FarField.NewResolver()
		if fs, ok := e.farScr.(farSharder); ok && fs.AccumShards() > 1 {
			e.farShard = fs
		}
		if bp, ok := cfg.FarField.(farBatchPlanner); ok && !cfg.NoFarBatch {
			if br, ok := e.farScr.(farBatchResolver); ok {
				batchPlan = bp
				e.farBatch = br
			}
		}
		if cfg.Adaptive {
			e.adaptive = true
			e.crossover = cfg.AdaptiveCrossover
			if e.crossover <= 0 {
				e.crossover = DefaultAdaptiveCrossover
			}
		}
		// Exact slots on an adaptive engine decode with on-the-fly path
		// loss (bit-identical to table entries): a far-field session exists
		// to avoid the O(n²) table, and sparse slots don't need it.
	} else {
		// The gain table only pays off on the exact path; far-field mode
		// targets instances past its memory bound.
		e.gains = inst.GainTable()
	}
	switch {
	case cfg.Pool != nil && cfg.Pool.Workers() > 1 && live >= 2*cfg.Pool.Workers():
		// Shared session pool; the engine borrows it and never closes it.
		e.pool = cfg.Pool
		e.shards = make([]shard, cfg.Pool.Workers())
	case cfg.Pool == nil && cfg.Workers > 1 && live >= 2*cfg.Workers:
		e.pool = NewPool(cfg.Workers)
		e.ownPool = true
		e.shards = make([]shard, cfg.Workers)
	default:
		e.shards = make([]shard, 1)
	}
	e.lis = make([]int32, 0, live)
	e.acc = make([]listenAcc, live)
	if e.farBatch != nil {
		e.farOrder, e.farClass = batchPlan.BatchSpec()
		e.farVs = make([]int32, 0, n)
		e.farB = make([]int32, 0, n+1)
		e.farBS = make([]*sinr.BatchState, len(e.shards))
		e.farSinks = make([]farSink, len(e.shards))
		for k := range e.farBS {
			e.farBS[k] = batchPlan.NewBatchState()
			e.farSinks[k] = farSink{e: e, sh: &e.shards[k]}
		}
	}
	return e, nil
}

// Close releases the engine's private worker pool, if it spawned one. A
// shared pool passed in via Config.Pool is left running — its owner (the
// session handle) closes it. The engine must not be stepped after Close.
// Close is idempotent.
func (e *Engine) Close() {
	if e.pool != nil && e.ownPool {
		e.pool.Close()
	}
	e.pool = nil
	e.ownPool = false
}

// Slot returns the index of the next slot to execute.
func (e *Engine) Slot() int { return e.slot }

// Stats returns a copy of the engine's counters.
func (e *Engine) Stats() Stats { return e.stats }

// Instance returns the underlying SINR instance.
func (e *Engine) Instance() *sinr.Instance { return e.inst }

// Step executes one slot: gather actions, resolve the channel, deliver.
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

	// Stage 1: step every live protocol with its inbox (parallel).
	if e.pool != nil {
		e.pool.dispatch(e, stageStep)
	} else {
		e.stepRange(0, len(e.live))
	}

	// Stage 2: collect the sender set and the listeners, in ascending node
	// order.
	e.txs = e.txs[:0]
	e.lis = e.lis[:0]
	for _, i := range e.live {
		switch a := &e.actions[i]; a.Kind {
		case ActionTransmit:
			e.txs = append(e.txs, sinr.Tx{Sender: int(i), Power: a.Power})
			e.stats.Energy += a.Power
		case ActionListen:
			e.lis = append(e.lis, i)
		}
	}
	e.stats.Transmissions += len(e.txs)

	// Stage 2.5 (far-field mode): pick the slot's resolution mode, then one
	// serial O(#senders) pass folds the sender set into the plan's
	// aggregates for the parallel decode stage. Adaptive engines keep
	// sparse slots exact — below the crossover the plan's accumulation and
	// per-listener walk floor cost more than |listeners|·|txs| direct
	// gains — and the choice reads only |txs|, so it is deterministic and
	// worker-count independent.
	e.farSlot = e.far != nil && len(e.txs) > 0
	if e.farSlot && e.adaptive && len(e.txs) < e.crossover {
		e.farSlot = false
	}
	if e.far != nil && e.cfg.forceFar != nil {
		e.farSlot = e.cfg.forceFar(e.slot, len(e.txs)) && len(e.txs) > 0
	}
	if e.farSlot {
		if e.farShard != nil && e.pool != nil && len(e.txs) >= shardedAccumMinTxs {
			// Sharded fold across the pool, bit-identical to the serial
			// Accumulate: a serial counting sort by shard, a parallel fold
			// of each shard's subtree, a serial cross-shard merge.
			e.farShard.AccumBegin(e.txs)
			e.pool.dispatch(e, stageFarAccum)
			e.farShard.AccumFinish()
		} else {
			e.farScr.Accumulate(e.txs)
		}
	}

	// Stage 3: decode at every listener (parallel). Each listener decodes
	// the strongest sender if its SINR clears β. Counters land in per-worker
	// shards; no lock is taken. Exact slots decode sender-major, streaming
	// each sender's gain row across the listeners (decodeExact); pooled
	// engines give each worker a contiguous share of lis. Far slots on a
	// batching plan group the listeners by predicate class (serially, from
	// the plan's static spec) and walk each class run through one shared
	// frontier — bit-identical to the per-listener walks.
	if len(e.txs) > 0 {
		switch {
		case e.farSlot && e.farBatch != nil:
			e.buildFarRuns()
			if e.pool != nil {
				e.pool.dispatch(e, stageDecodeFarBatch)
			} else {
				e.decodeFarBatchRange(0, len(e.farVs), 0)
			}
		case e.pool != nil:
			e.pool.dispatch(e, stageDecode)
		default:
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
}

// stepRange runs stage 1 for the live nodes live[lo:hi].
//sinr:hotpath
func (e *Engine) stepRange(lo, hi int) {
	slot := e.slot
	for _, i := range e.live[lo:hi] {
		e.actions[i] = e.procs[i].Step(slot, e.inboxes[i])
		e.next[i] = e.next[i][:0]
	}
}

// decodeRange runs stage 3 for the listeners lis[lo:hi], accumulating
// counters into sh.
//sinr:hotpath
func (e *Engine) decodeRange(lo, hi int, sh *shard) {
	if e.farSlot {
		for _, i := range e.lis[lo:hi] {
			e.decodeListenerFar(int(i), sh)
		}
		return
	}
	e.decodeExact(lo, hi, sh)
}

// decodeExact resolves reception at the listeners lis[lo:hi] sender-major:
// for each sender in txs order, one pass over the listeners reads the
// sender's gain row at the listeners' columns, folding the received power
// into each listener's accumulator. The table is symmetric bit for bit
// (gain[s·n+v] == gain[v·n+s]), so with ascending listeners a row read
// streams through contiguous memory; scanning each listener's own row at
// the senders' columns instead would fetch one cache line per (listener,
// sender) pair. Every listener still sees the senders in txs order, so its
// sum, its winner and its saturation verdict are the ones a listener-major
// scan computes. The strongest sender is decoded iff its SINR ≥ β; its
// distance (for Delivery.Dist) is computed once, only for an actual
// delivery.
//sinr:hotpath
func (e *Engine) decodeExact(lo, hi int, sh *shard) {
	lis, acc := e.lis[lo:hi], e.acc[lo:hi]
	for j := range acc {
		acc[j] = listenAcc{best: -1}
	}
	n := len(e.procs)
	for k := range e.txs {
		t := &e.txs[k]
		if e.gains != nil {
			row := e.gains[t.Sender*n : (t.Sender+1)*n]
			for j, v := range lis {
				acc[j].add(k, t.Power, row[v])
			}
			continue
		}
		// On-the-fly path loss: bit-identical to a table entry (same
		// expression), and — unlike Instance.Gain — never forces the
		// O(n²) table build an adaptive far-field engine avoids.
		for j, v := range lis {
			acc[j].add(k, t.Power, 1/sinr.PowAlphaSq(e.inst.DistSq(t.Sender, int(v)), e.alpha))
		}
	}
	for j, v := range lis {
		switch a := &acc[j]; {
		case a.sat:
			sh.collided++
		case a.best >= 0: // else no audible signal (all senders at zero power)
			e.finishDecode(int(v), int(a.best), a.bestRP, a.total, sh)
		}
	}
}

// decodeListenerFar resolves reception at listener i through the far-field
// plan: the winner and its received power are exact (both plans refine any
// aggregate that could hide the strongest sender), the interference total
// is approximate within the plan's certified ε, and everything downstream —
// the β cut, drop injection, delivery bookkeeping — is the shared exact
// tail.
//sinr:hotpath
func (e *Engine) decodeListenerFar(i int, sh *shard) {
	best, bestRP, total, saturated := e.farScr.Resolve(i, e.txs)
	if saturated {
		// A co-located sender drowns the channel, exactly as in exact mode.
		sh.collided++
		return
	}
	if best < 0 {
		return
	}
	e.finishDecode(i, best, bestRP, total, sh)
}

// farSink adapts one worker's decode tail to sinr.BatchSink: ResolveBatch
// hands it per-listener results in batch order and it applies the same
// saturation/no-signal/β-cut handling as decodeListenerFar. The sinks live
// in Engine.farSinks so passing one through the interface never allocates.
type farSink struct {
	e  *Engine
	sh *shard
}

// DeliverFar implements sinr.BatchSink.
//sinr:hotpath
func (s *farSink) DeliverFar(v, best int, bestRP, total float64, saturated bool) {
	if saturated {
		s.sh.collided++
		return
	}
	if best < 0 {
		return
	}
	s.e.finishDecode(v, best, bestRP, total, s.sh)
}

// buildFarRuns collects the slot's listening nodes in the plan's batch
// order into farVs and records each predicate-class run's start in farB
// (trailing sentinel = len(farVs)). Serial, O(n), allocation-free (both
// slices were sized for the whole node set at construction).
//sinr:hotpath
func (e *Engine) buildFarRuns() {
	e.farVs = e.farVs[:0]
	e.farB = e.farB[:0]
	prev := int32(-1)
	for pos, node := range e.farOrder {
		if e.actions[node].Kind != ActionListen {
			continue
		}
		if c := e.farClass[pos]; c != prev {
			e.farB = append(e.farB, int32(len(e.farVs)))
			prev = c
		}
		e.farVs = append(e.farVs, node)
	}
	e.farB = append(e.farB, int32(len(e.farVs)))
}

// decodeFarBatchRange decodes the listeners farVs[lo:hi) as worker k,
// splitting the range at class-run boundaries so every ResolveBatch call
// honors the one-class contract. Each listener's result is independent of
// how runs are split across workers (batched ≡ solo per listener), so any
// partition of farVs decodes identically.
//sinr:hotpath
func (e *Engine) decodeFarBatchRange(lo, hi, k int) {
	if lo >= hi {
		return
	}
	sink := &e.farSinks[k]
	bs := e.farBS[k]
	// The last run containing lo: greatest r with farB[r] ≤ lo.
	l, h := 0, len(e.farB)-2
	for l < h {
		m := (l + h + 1) >> 1
		if int(e.farB[m]) <= lo {
			l = m
		} else {
			h = m - 1
		}
	}
	for r := l; lo < hi; r++ {
		end := int(e.farB[r+1])
		if end > hi {
			end = hi
		}
		e.farBatch.ResolveBatch(bs, e.farVs[lo:end], sink)
		lo = end
	}
}

// finishDecode is the decode tail shared by the exact and far-field paths:
// the β cut on the winner's SINR, drop injection, and delivery bookkeeping.
// best indexes e.txs; total is the full received power including the
// winner's.
//sinr:hotpath
func (e *Engine) finishDecode(i, best int, bestRP, total float64, sh *shard) {
	sinrVal := bestRP / (e.noise + (total - bestRP))
	if sinrVal < e.beta {
		sh.collided++
		return
	}
	if e.cfg.DropProb > 0 && dropCoin(e.cfg.Seed, e.slot, i) < e.cfg.DropProb {
		sh.dropped++
		return
	}
	tx := e.txs[best]
	e.next[i] = append(e.next[i], Delivery{
		Msg:  e.actions[tx.Sender].Msg,
		Dist: e.inst.Dist(tx.Sender, i),
		SINR: sinrVal,
		Slot: e.slot,
	})
	sh.delivered++
}

// Run executes exactly n slots.
func (e *Engine) Run(n int) {
	for i := 0; i < n; i++ {
		e.Step()
	}
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

// RunUntil executes slots until stop() returns true (checked after every
// slot) or maxSlots have run, returning the number of slots executed.
func (e *Engine) RunUntil(maxSlots int, stop func() bool) int {
	ran := 0
	for ran < maxSlots {
		e.Step()
		ran++
		if stop() {
			break
		}
	}
	return ran
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
