package sinrconn

// The session-oriented API: a Network is a long-lived handle over one point
// set. Open validates and normalizes the geometry once, owns the physics
// instances (the O(n²) gain table is built once per physical parameterization
// and shared by every run) and a persistent simulator worker pool, and every
// construction — the four theorem pipelines, joins, repairs, and physical
// aggregate/broadcast epochs — runs against that shared state. Constructions
// are deterministic for fixed settings, so a Network also memoizes Run
// results: a repeated query is a map lookup, which is what lets one handle
// serve the same deployment to many callers cheaply.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"sinrconn/internal/core"
	"sinrconn/internal/faults"
	"sinrconn/internal/geom"
	"sinrconn/internal/serve/cache"
	"sinrconn/internal/sim"
	"sinrconn/internal/sinr"
	"sinrconn/internal/tree"
)

// Pipeline identifies one of the paper's construction pipelines.
type Pipeline uint8

// The four pipelines, mirroring the paper's theorems.
const (
	// PipelineInit is the Section 6 construction (Theorem 2): a bi-tree in
	// O(log Δ · log n) slots using per-round uniform power.
	PipelineInit Pipeline = iota + 1
	// PipelineRescheduleMean is Section 7 (Theorem 3): the Init tree
	// re-scheduled under mean power, removing the log Δ factor. The
	// resulting schedule may violate the bi-tree ordering property (the
	// paper's caveat), so aggregation/broadcast latencies are not filled.
	PipelineRescheduleMean
	// PipelineTVCMean is TreeViaCapacity with Υ-sampled mean-power
	// selection (Theorem 4, second half: O(Υ·log n) slots).
	PipelineTVCMean
	// PipelineTVCArbitrary is TreeViaCapacity with Distr-Cap selection and
	// computed per-link powers (Theorem 4, first half: O(log n) slots).
	PipelineTVCArbitrary
)

// Pipelines returns all four pipelines in declaration order — handy for
// sweep construction.
func Pipelines() []Pipeline {
	return []Pipeline{PipelineInit, PipelineRescheduleMean, PipelineTVCMean, PipelineTVCArbitrary}
}

// String implements fmt.Stringer.
func (p Pipeline) String() string {
	switch p {
	case PipelineInit:
		return "init-uniform"
	case PipelineRescheduleMean:
		return "reschedule-mean"
	case PipelineTVCMean:
		return "tvc-mean"
	case PipelineTVCArbitrary:
		return "tvc-arbitrary"
	}
	return fmt.Sprintf("pipeline(%d)", uint8(p))
}

// Ordered reports whether the pipeline guarantees the bi-tree aggregation
// ordering property (PipelineRescheduleMean does not, per the paper).
func (p Pipeline) Ordered() bool { return p != PipelineRescheduleMean }

// settings is the resolved configuration of a Network or a single run.
// Functional options edit it; every With* records the value it was
// explicitly handed, so an explicit zero is never mistaken for "default".
type settings struct {
	phys          sinr.Params
	seed          int64
	workers       int
	drop          float64
	autoNormalize bool
	broadcastProb float64
	rho           int
	maxRelErr     float64
	cacheSize     int
	cacheTTL      time.Duration
	observer      sim.Observer
	injector      faults.Injector

	physSet   bool  // WithPhys applied in the current scope
	relErrSet bool  // WithMaxRelError applied in the current scope
	runScope  bool  // applying options to a single run, not to Open
	err       error // first option error, reported by Open/Run
}

func defaultSettings() settings {
	return settings{phys: sinr.DefaultParams(), cacheSize: maxCachedResults}
}

// fail records the first option error, wrapped in ErrInvalidOption.
func (s *settings) fail(err error) {
	if s.err == nil {
		s.err = fmt.Errorf("%w: %w", ErrInvalidOption, err)
	}
}

// Option configures a Network at Open time. The same values double as
// RunOption where per-run overrides make sense; options that shape the
// session itself (WithWorkers, WithAutoNormalize) are rejected by Run.
type Option func(*settings)

// RunOption adjusts a single Run (or one RunSpec of a RunMatrix sweep) on
// an open Network. Every RunOption is an Option; the reverse holds except
// for the Open-scoped options called out above.
type RunOption = Option

// WithPhys sets the SINR physical constants. Zero fields of p inherit the
// value currently in effect: the package defaults (α = 3, β = 1.5, N = 1)
// at Open, or the session's Open-time parameters at run scope — so a
// per-run α override keeps a session-customized β. As a RunOption it
// selects (building and caching on first use) the instance for that
// parameterization, so one Network serves sweeps across α/β/N without
// re-validating geometry. Joins, repairs, and physical epochs operate on
// an existing result's physics and reject this option.
func WithPhys(p PhysParams) Option {
	return func(s *settings) {
		if p.Alpha != 0 {
			s.phys.Alpha = p.Alpha
		}
		if p.Beta != 0 {
			s.phys.Beta = p.Beta
		}
		if p.Noise != 0 {
			s.phys.Noise = p.Noise
		}
		s.physSet = true
		if err := s.phys.Validate(); err != nil {
			s.fail(err)
		}
	}
}

// WithSeed sets the seed deriving all protocol randomness. Zero is a legal
// explicit seed (it is also the default).
func WithSeed(seed int64) Option {
	return func(s *settings) { s.seed = seed }
}

// WithWorkers bounds the simulator worker pool (0 = NumCPU, the default).
// Open-scoped: the pool is sized once per Network.
func WithWorkers(n int) Option {
	return func(s *settings) {
		if s.runScope {
			s.fail(errors.New("WithWorkers is an Open option, not a run option"))
			return
		}
		if n < 0 {
			s.fail(fmt.Errorf("negative worker count %d", n))
			return
		}
		s.workers = n
	}
}

// WithDropProb injects reception failures (fading) with the given
// probability in [0, 1). Zero is a legal explicit value (no injection).
// The drops reach every construction, repair, churn trace and physical
// epoch, except the Section 7 scheduler of PipelineRescheduleMean, which
// runs drop-free: the Init construction it reschedules sees the drops.
func WithDropProb(p float64) Option {
	return func(s *settings) {
		if !(p >= 0 && p < 1) {
			s.fail(fmt.Errorf("drop probability %v outside [0,1)", p))
			return
		}
		s.drop = p
	}
}

// WithAutoNormalize rescales the input so the minimum pairwise distance is
// 1 instead of rejecting un-normalized input. Open-scoped: the geometry is
// fixed when the Network opens.
func WithAutoNormalize(on bool) Option {
	return func(s *settings) {
		if s.runScope {
			s.fail(errors.New("WithAutoNormalize is an Open option, not a run option"))
			return
		}
		s.autoNormalize = on
	}
}

// WithBroadcastProb overrides the Section 6 broadcast probability p,
// which must lie in (0, 0.5].
func WithBroadcastProb(p float64) Option {
	return func(s *settings) {
		if !(p > 0 && p <= 0.5) {
			s.fail(fmt.Errorf("broadcast probability %v outside (0, 0.5]", p))
			return
		}
		s.broadcastProb = p
	}
}

// WithRho overrides the low-degree cap ρ for the TreeViaCapacity pipelines
// (must be ≥ 1).
func WithRho(rho int) Option {
	return func(s *settings) {
		if rho < 1 {
			s.fail(fmt.Errorf("rho %d must be ≥ 1", rho))
			return
		}
		s.rho = rho
	}
}

// WithMaxRelError enables the quadtree far-field interference
// approximation with the given worst-case relative error bound on per-slot
// interference sums (and hence a (1±ε) band on SINR values at the β cut).
// Distant senders are aggregated per pyramid node, making channel
// resolution sub-quadratic — the mode that carries instances past the
// exact kernel's O(n²) wall. ε = 0 (the default) selects the exact path,
// bit-identical to a Network without the option; ε > 0 selects the
// opening threshold θ(ε, α) per DESIGN.md §8, and the certified bound is
// honored by every engine slot and by Result.Tree.Verify, which validates
// schedules under the matching guard band. Each slot picks exact or
// quadtree resolution from its live sender count (sparse slots are cheaper
// exact; see sim.Config.Far), and a box too small for its ε (the plan's
// opening horizon spanning it) runs exact throughout. Legal at Open and at
// run scope; results for distinct ε are memoized separately. Operations on
// an existing result (Join, Repair, physical epochs) inherit the mode the
// result's tree was built under unless the operation passes this option
// explicitly.
func WithMaxRelError(eps float64) Option {
	return func(s *settings) {
		if eps < 0 || math.IsInf(eps, 1) || math.IsNaN(eps) {
			s.fail(fmt.Errorf("max relative error %v must be ≥ 0 and finite", eps))
			return
		}
		s.maxRelErr = eps
		s.relErrSet = true
	}
}

// SlotEvent summarizes one simulator slot for an observing caller: the
// slot index within the current engine run, the number of concurrent
// transmitters, the number of successful decodes, and whether the slot was
// resolved through the far-field approximation (see WithMaxRelError).
type SlotEvent struct {
	Slot    int
	Senders int
	// Deliveries counts only the decodes a protocol reads: a listener
	// that reads messages from nearby senders only, or addressed to it
	// only, counts none of the others.
	Deliveries int
	Far        bool
}

// SlotObserver receives a SlotEvent after every simulator slot of a run.
// Observers are invoked synchronously on the engine's goroutine, so they
// must be fast and must not call back into the Network.
type SlotObserver func(SlotEvent)

// WithObserver streams per-slot channel activity to fn during a run — the
// hook the serving daemon uses for chunked result streaming. Observers are
// diagnostic: they never influence the constructed result, so they are
// excluded from the memo key. An observed run that hits the memo replays
// NO events (the construction did not execute); an observed run that
// misses computes privately — it never coalesces onto another caller's
// in-flight construction, whose slot events it could not see — and still
// commits its (deterministic) result for everyone else. An observed
// PipelineRescheduleMean miss streams Init's slots and then the
// scheduler's, even when the session has memoized the Init it
// reschedules: it rebuilds that Init privately. fn = nil removes an
// Open-scoped observer for this run.
func WithObserver(fn SlotObserver) Option {
	return func(s *settings) {
		if fn == nil {
			s.observer = nil
			return
		}
		s.observer = func(e sim.SlotEvent) {
			fn(SlotEvent{Slot: e.Slot, Senders: e.Senders, Deliveries: e.Deliveries, Far: e.Far})
		}
	}
}

// WithFaultInjector installs a fault-injection hook (normally a
// *faults.Plan; see internal/faults) consulted at the handle's
// registered injection sites: cache.leader.panic once per Run that
// misses the memo, before its compute (not in the Init compute that a
// PipelineRescheduleMean miss runs nested), churn.repair.fail before
// each churn repair attempt, and the engine sites (sim.slot.slow,
// pool.worker.stall) on every engine the session creates. Injected
// faults stall or fail operations but never alter computed results, so
// a fault-free replay of the same seed stays bit-identical.
// Open-scoped: the serving daemon installs one plan per server
// (`served -chaos`); production handles omit the option and pay a nil
// check per site. inj = nil is the default (no injection).
func WithFaultInjector(inj faults.Injector) Option {
	return func(s *settings) {
		if s.runScope {
			s.fail(errors.New("WithFaultInjector is an Open option, not a run option"))
			return
		}
		s.injector = inj
	}
}

// WithResultCache bounds the Network's result memo: at most size entries
// (LRU-evicted beyond that), each expiring ttl after insertion (ttl = 0
// means never — results are deterministic, so staleness is a memory
// concern, not a correctness one). size = 0 selects the default
// (maxCachedResults). Open-scoped: the memo is shared by every run on the
// handle, so it is sized once. Serving deployments size it from traffic;
// see internal/serve.
func WithResultCache(size int, ttl time.Duration) Option {
	return func(s *settings) {
		if s.runScope {
			s.fail(errors.New("WithResultCache is an Open option, not a run option"))
			return
		}
		if size < 0 || ttl < 0 {
			s.fail(fmt.Errorf("result cache size %d / ttl %v must be ≥ 0", size, ttl))
			return
		}
		if size == 0 {
			size = maxCachedResults
		}
		s.cacheSize = size
		s.cacheTTL = ttl
	}
}

// runKey identifies a deterministic run for memoization: everything that
// influences a pipeline's output. Worker counts are deliberately absent —
// results are reproducible regardless of parallelism (pinned by the sim
// package's pool-versus-serial tests).
type runKey struct {
	pipeline Pipeline
	phys     sinr.Params
	seed     int64
	drop     float64
	bprob    float64
	rho      int
	relErr   float64
}

// maxCachedResults is the default capacity of the per-Network result
// memo, now a size- and TTL-bounded LRU (internal/serve/cache) with
// singleflight coalescing: beyond the capacity the least recently used
// result is evicted (still valid for callers holding it — eviction only
// drops the cache's reference), and concurrent identical queries share one
// construction. WithResultCache resizes it at Open.
const maxCachedResults = 128

// maxCachedInstances bounds the per-Network instance cache: each retained
// instance can hold an O(n²) gain table (up to 256 MiB at the sinr memory
// budget), so an unbounded phys sweep must not pin them all. Beyond the
// cap, runs get a fresh un-retained instance — correct, just un-amortized.
const maxCachedInstances = 16

// ErrNetworkClosed reports a Run on a closed Network.
var ErrNetworkClosed = errors.New("sinrconn: network is closed")

// Network is a long-lived session handle over one validated point set. It
// owns the physics instances (gain tables built once per parameterization)
// and a persistent simulator worker pool; every run, join, repair, and
// physical epoch on the handle reuses them. Methods are safe for
// concurrent use — the instance is read-only after build and the pool is
// engine-agnostic — which is what RunMatrix exploits.
//
// Close releases the worker pool. Results remain valid after Close; only
// new runs are refused.
type Network struct {
	pts  []geom.Point
	base settings

	// parent is set on Networks derived by Join: they share the parent's
	// pool (resolved dynamically, so after a parent Close a derived
	// network's engines run every stage inline instead of crashing).
	parent *Network

	mu     sync.Mutex
	pool   *sim.Pool
	closed bool
	insts  map[sinr.Params]*sinr.Instance
	memo   *cache.Cache[runKey, *Result]

	// running counts in-flight operations (beginOp) and pool borrows
	// (acquirePool). Close waits for it before returning, so "new work is
	// refused" is a barrier: once Close returns, no admitted operation is
	// still executing and no engine can dispatch on closed worker channels.
	running sync.WaitGroup
}

// Open validates pts, builds the instance for the configured physical
// parameters and spawns the persistent worker pool. Callers own the
// handle: Close it to release the pool's goroutines.
//
// Validation runs in O(n log n): pts must be non-empty with finite
// coordinates and a bounding box whose squared diagonal does not overflow
// (ErrInvalidGeometry otherwise), and the minimum pairwise distance must
// be ≥ 1 (ErrNotNormalized), unless WithAutoNormalize rescales it to 1.
// The exact physics' O(n²) gain table is not built here; the first run
// that needs it builds it once for the session.
func Open(pts []Point, opts ...Option) (*Network, error) {
	s := defaultSettings()
	for _, o := range opts {
		o(&s)
	}
	if s.err != nil {
		return nil, s.err
	}
	if len(pts) == 0 {
		return nil, errors.New("sinrconn: no points")
	}
	g := make([]geom.Point, len(pts))
	for i, p := range pts {
		g[i] = geom.Point{X: p.X, Y: p.Y}
	}
	if err := checkGeometry(g); err != nil {
		return nil, err
	}
	if len(g) > 1 {
		if md := geom.MinDist(g); md < 1-1e-9 {
			if !s.autoNormalize {
				return nil, fmt.Errorf("%w: min distance %v", ErrNotNormalized, md)
			}
			if md <= 0 {
				return nil, fmt.Errorf("%w: duplicate points", ErrInvalidGeometry)
			}
			g, _ = geom.Normalize(g)
			// Scaling up by 1/md can push a finite extent past overflow.
			if err := checkGeometry(g); err != nil {
				return nil, err
			}
		}
	}
	nw := &Network{
		pts:   g,
		base:  s,
		insts: make(map[sinr.Params]*sinr.Instance),
		memo:  cache.New[runKey, *Result](s.cacheSize, s.cacheTTL),
	}
	if _, err := nw.instanceFor(s.phys); err != nil {
		return nil, err
	}
	nw.pool = sim.NewPool(s.workers)
	return nw, nil
}

// checkGeometry rejects non-finite coordinates and extents whose squared
// distance overflows. A finite bounding-box diagonal bounds every pairwise
// DistSq, so past this check no distance, Δ or length class is infinite.
func checkGeometry(pts []geom.Point) error {
	for i, p := range pts {
		if math.IsNaN(p.X) || math.IsInf(p.X, 0) || math.IsNaN(p.Y) || math.IsInf(p.Y, 0) {
			return fmt.Errorf("%w: point %d is (%v, %v)", ErrInvalidGeometry, i, p.X, p.Y)
		}
	}
	lo, hi := geom.BoundingBox(pts)
	if math.IsInf(lo.DistSq(hi), 1) {
		return fmt.Errorf("%w: extent %v to %v overflows the squared distance", ErrInvalidGeometry, lo, hi)
	}
	return nil
}

// Close releases the Network's worker pool, waiting first for in-flight
// operations to finish so their engines never touch closed worker
// channels. Networks derived by Join share their parent's pool and never
// close it; once the parent has closed, their engines run every stage
// inline, on the operation's goroutine. Close is idempotent; existing
// Results stay usable, new runs return ErrNetworkClosed.
func (nw *Network) Close() error {
	nw.mu.Lock()
	if nw.closed {
		nw.mu.Unlock()
		return nil
	}
	nw.closed = true
	p := nw.pool
	nw.pool = nil
	nw.mu.Unlock()
	nw.running.Wait()
	if p != nil {
		p.Close()
	}
	return nil
}

// Len returns the number of nodes the Network spans.
func (nw *Network) Len() int { return len(nw.pts) }

// acquirePool borrows the session worker pool (the Network's own, or the
// parent's for Join-derived handles) for one operation, registering it so
// Close blocks until the operation releases. A nil pool (the owner has
// closed: a derived handle whose parent closed, or an operation admitted
// just before Close) means the operation's engines run every stage on
// their own goroutine — slower, never different. The returned release
// func must be called in every case.
func (nw *Network) acquirePool() (*sim.Pool, func()) {
	owner := nw
	if nw.parent != nil {
		owner = nw.parent
	}
	owner.mu.Lock()
	defer owner.mu.Unlock()
	if owner.closed || owner.pool == nil {
		return nil, func() {}
	}
	owner.running.Add(1)
	return owner.pool, func() { owner.running.Done() }
}

// beginOp admits one operation on the handle: refused with
// ErrNetworkClosed once Close has started, registered in running
// otherwise — so Close blocks until every admitted operation calls the
// returned release (no run can still be executing after Close returns).
func (nw *Network) beginOp() (func(), error) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if nw.closed {
		return nil, ErrNetworkClosed
	}
	nw.running.Add(1)
	return func() { nw.running.Done() }, nil
}

// instanceFor returns the session instance for the given physical
// parameters, building and caching it on first use. Instances are
// read-only after build and shared freely across concurrent runs.
func (nw *Network) instanceFor(p sinr.Params) (*sinr.Instance, error) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if in, ok := nw.insts[p]; ok {
		return in, nil
	}
	in, err := sinr.NewInstance(nw.pts, p)
	if err != nil {
		return nil, err
	}
	if len(nw.insts) < maxCachedInstances {
		nw.insts[p] = in
	}
	return in, nil
}

// runSettings resolves per-run options against the Network's base
// configuration.
func (nw *Network) runSettings(opts []RunOption) (settings, error) {
	s := nw.base
	s.err = nil
	s.runScope = true
	s.physSet = false
	s.relErrSet = false
	for _, o := range opts {
		o(&s)
	}
	return s, s.err
}

func (s *settings) key(p Pipeline) runKey {
	return runKey{
		pipeline: p,
		phys:     s.phys,
		seed:     s.seed,
		drop:     s.drop,
		bprob:    s.broadcastProb,
		rho:      s.rho,
		relErr:   s.maxRelErr,
	}
}

// CacheStats snapshots the handle's result-memo counters (hits, misses,
// coalesced computes, evictions, expirations, compute latency). The
// serving daemon aggregates these across sessions onto /metrics.
func (nw *Network) CacheStats() cache.Stats { return nw.memo.Stats() }

// channel borrows the session pool for one operation and returns, with
// the release func that must be called once the operation has finished,
// the channel its engines run on: s's drop rate, seed, observer and
// injector, the far-field plan ff, and the pool. Every run, join, repair,
// churn trace and physical epoch on the handle takes its engines' config
// from here, so an engine-wide setting is threaded through one place.
func (nw *Network) channel(s settings, ff *sinr.QuadTree) (sim.Config, func()) {
	pool, release := nw.acquirePool()
	return sim.Config{
		DropProb: s.drop,
		Seed:     s.seed,
		Pool:     pool,
		Far:      ff,
		Observer: s.observer,
		Injector: s.injector,
	}, release
}

// initConfig derives the core construction config for a run of s on ch.
func initConfig(s settings, ch sim.Config) core.InitConfig {
	return core.InitConfig{BroadcastProb: s.broadcastProb, Channel: ch}
}

// scheduleChannel is the channel of PipelineRescheduleMean's Section 7
// scheduler: the run's channel ch, drop-free, with the seed after the
// run's. The scheduler has never run under WithDropProb's drops, which
// reach the Init construction before it but not the rescheduling, and
// every recorded reschedule result pins that.
func scheduleChannel(ch sim.Config) sim.Config {
	ch.DropProb = 0
	ch.Seed++
	return ch
}

// farFieldFor resolves the far-field plan a settings' ε selects over in:
// nil for the exact path, else the quadtree, whose engines pick exact or
// far resolution per slot from the sender count (sim.Config.Far). ε = 0
// is always exact.
func farFieldFor(in *sinr.Instance, s settings) (*sinr.QuadTree, error) {
	if s.maxRelErr == 0 {
		return nil, nil
	}
	q, err := in.QuadTree(s.maxRelErr)
	if err != nil {
		return nil, err
	}
	if q.NearDominated() {
		// The leaf-level opening horizon covers most of the instance
		// (tight ε on a small box): most listeners would open most of the
		// pyramid, an exact scan with overhead. The exact path serves the
		// ε contract — zero error trivially satisfies the bound, faster.
		return nil, nil
	}
	return q, nil
}

// opFarField resolves the channel mode for an operation on an existing
// result (join, repair, physical epoch). An explicit WithMaxRelError on
// the operation wins outright; without it, the operation inherits the ε
// the result's tree was built under, rebuilding its plan over in — so
// growing or re-driving an ε-built tree never silently switches it to
// exact physics (and vice versa). in is the operation's instance — the
// tree's own for repairs and epochs, the extended one for joins.
func opFarField(r *Result, in *sinr.Instance, s settings) (*sinr.QuadTree, error) {
	if s.relErrSet {
		return farFieldFor(in, s)
	}
	if r.Tree.ff == nil {
		return nil, nil // exact-built tree stays exact
	}
	return in.QuadTree(r.Tree.ff.MaxRelError())
}

// Run executes one pipeline on the open handle, reusing the session's
// instance (no geometry re-validation, no gain-table rebuild) and worker
// pool. ctx is honored between simulator slots in every pipeline: on
// cancellation or deadline Run returns an error wrapping ctx.Err() and the
// handle remains fully usable.
//
// Runs are deterministic for fixed settings, and the handle memoizes them:
// repeating a (pipeline, phys, seed, …) query returns the same *Result
// without re-running the construction, and concurrent identical queries
// coalesce onto ONE construction (the rest wait and share the committed
// result). A result enters the memo only when its construction finishes
// without error — a run canceled between slots commits nothing, and any
// coalesced waiters retry with their own contexts. Results are shared and
// must be treated as read-only, which every method on them honors.
func (nw *Network) Run(ctx context.Context, p Pipeline, opts ...RunOption) (*Result, error) {
	r, _, err := nw.RunCached(ctx, p, opts...)
	return r, err
}

// RunCached is Run plus a report of whether the result was served from the
// memo (a direct hit, or a wait on another caller's identical in-flight
// construction) rather than computed by this call. The serving daemon uses
// it to label responses; the result is identical to Run's either way.
func (nw *Network) RunCached(ctx context.Context, p Pipeline, opts ...RunOption) (*Result, bool, error) {
	done, err := nw.beginOp()
	if err != nil {
		return nil, false, err
	}
	defer done()
	s, err := nw.runSettings(opts)
	if err != nil {
		return nil, false, err
	}
	switch p {
	case PipelineInit, PipelineRescheduleMean, PipelineTVCMean, PipelineTVCArbitrary:
	default:
		return nil, false, fmt.Errorf("sinrconn: unknown pipeline %v", p)
	}
	key := s.key(p)
	if s.observer != nil {
		// Observed runs never coalesce: a waiter sees none of the leader's
		// slot events, which would silently violate the streaming contract.
		// The memo still serves hits (no events — nothing executed) and the
		// private compute still commits for everyone else.
		if r, ok := nw.memo.Get(key); ok {
			return r, true, nil
		}
		res, err := nw.compute(ctx, p, s)
		if err != nil {
			return nil, false, err
		}
		nw.memo.Add(key, res)
		return res, false, nil
	}
	return nw.memo.Do(ctx, key, func() (*Result, error) {
		return nw.compute(ctx, p, s)
	})
}

// compute executes one pipeline uncached, on the session instance and
// pool. It is the memo's compute function: an error return (including
// cancellation between slots) must leave nothing observable behind, which
// holds because every pipeline builds its result privately and returns it
// only on success.
func (nw *Network) compute(ctx context.Context, p Pipeline, s settings) (*Result, error) {
	// Fault site cache.leader.panic: compute runs as the result memo's
	// singleflight leader (or as a private observed run), so a panic here
	// exercises the cache's leader-failure path — followers must be
	// released with an error, never wedged (TestLeaderPanicReleasesFollowers),
	// and the serving daemon's recovery middleware must turn it into a 500.
	if s.injector != nil {
		if act, ok := s.injector.Fire(faults.CacheLeaderPanic); ok {
			panic(fmt.Sprintf("sinrconn: injected fault %s #%d", act.Site, act.Seq))
		}
	}
	in, err := nw.instanceFor(s.phys)
	if err != nil {
		return nil, err
	}
	ff, err := farFieldFor(in, s)
	if err != nil {
		return nil, err
	}
	ch, release := nw.channel(s, ff)
	defer release()
	switch p {
	case PipelineInit:
		return nw.runInit(ctx, in, s, ch)
	case PipelineRescheduleMean:
		return nw.runRescheduleMean(ctx, in, s, ch)
	case PipelineTVCMean:
		return nw.runTVC(ctx, in, s, ch, core.VariantMean)
	case PipelineTVCArbitrary:
		return nw.runTVC(ctx, in, s, ch, core.VariantArbitrary)
	}
	return nil, fmt.Errorf("sinrconn: unknown pipeline %v", p)
}

// newResult binds a constructed tree and its metrics to this handle. ff
// (nil in exact mode) records the far-field plan the construction ran
// under, so Verify applies the matching guard band and operations on the
// result inherit the channel mode.
func (nw *Network) newResult(in *sinr.Instance, bt *tree.BiTree, m Metrics, ff *sinr.QuadTree) *Result {
	return &Result{Tree: publicTree(in, bt, ff), Metrics: m, nw: nw}
}

// finishResult completes m with in's Υ and Δ and bt's replayed latencies
// and binds the result to nw: the common tail of pipeline runs, joins,
// repairs and churn traces.
func (nw *Network) finishResult(in *sinr.Instance, bt *tree.BiTree, m Metrics, ff *sinr.QuadTree) (*Result, error) {
	m.Upsilon = in.Upsilon()
	m.Delta = in.Delta()
	if err := fillLatencies(&m, bt); err != nil {
		return nil, err
	}
	return nw.newResult(in, bt, m, ff), nil
}

// runInit is the Section 6 pipeline body (Theorem 2).
func (nw *Network) runInit(ctx context.Context, in *sinr.Instance, s settings, ch sim.Config) (*Result, error) {
	res, err := core.Init(ctx, in, initConfig(s, ch))
	if err != nil {
		return nil, err
	}
	bt := res.Tree
	bt.Compact()
	return nw.finishResult(in, bt, Metrics{
		SlotsUsed:      res.SlotsUsed,
		ScheduleLength: bt.NumSlots(),
		Rounds:         res.Rounds,
		Energy:         res.Stats.Energy,
	}, ch.Far)
}

// runRescheduleMean is the Section 7 pipeline body (Theorem 3). It
// reschedules the tree of the session's Init run with the same settings,
// so a session that runs both pipelines on one seed builds one tree.
func (nw *Network) runRescheduleMean(ctx context.Context, in *sinr.Instance, s settings, ch sim.Config) (*Result, error) {
	ires, err := nw.sessionInit(ctx, in, s, ch)
	if err != nil {
		return nil, err
	}
	// Reschedule reads only the tree's root, nodes and links, in Up order,
	// and copies them, so the shared Init tree is never mutated (Compact
	// only renumbered its slots).
	pa := sinr.NoiseSafeMean(in.Params(), math.Max(1, in.Delta()))
	rres, err := core.Reschedule(ctx, in, ires.Tree.inner, pa, scheduleChannel(ch))
	if err != nil {
		return nil, err
	}
	m := Metrics{
		SlotsUsed:      ires.Metrics.SlotsUsed + 2*rres.SlotPairs,
		ScheduleLength: rres.NumSlots,
		Rounds:         ires.Metrics.Rounds,
		Upsilon:        in.Upsilon(),
		Delta:          in.Delta(),
		Energy:         ires.Metrics.Energy + rres.Stats.Energy,
	}
	return nw.newResult(in, rres.Tree, m, ch.Far), nil
}

// sessionInit returns the PipelineInit result of s through the memo: a
// hit, a wait on another caller's Init, or a compute on ch, the channel
// the calling compute already borrowed. Unlike a Run miss it does not
// visit cache.leader.panic. An observed run's observer sees every Init
// slot: on a memo hit it replays the construction on ch for its slots,
// discards that tree and returns the memoized result; on a miss it
// computes privately and commits the result like any other observed run.
func (nw *Network) sessionInit(ctx context.Context, in *sinr.Instance, s settings, ch sim.Config) (*Result, error) {
	key := s.key(PipelineInit)
	if s.observer != nil {
		if r, ok := nw.memo.Get(key); ok {
			if _, err := core.Init(ctx, in, initConfig(s, ch)); err != nil {
				return nil, err
			}
			return r, nil
		}
		r, err := nw.runInit(ctx, in, s, ch)
		if err != nil {
			return nil, err
		}
		nw.memo.Add(key, r)
		return r, nil
	}
	r, _, err := nw.memo.Do(ctx, key, func() (*Result, error) {
		return nw.runInit(ctx, in, s, ch)
	})
	return r, err
}

// runTVC is the Section 8 pipeline body (Theorem 4, both halves).
func (nw *Network) runTVC(ctx context.Context, in *sinr.Instance, s settings, ch sim.Config, v core.Variant) (*Result, error) {
	res, err := core.TreeViaCapacity(ctx, in, core.TVCConfig{
		Variant: v,
		Rho:     s.rho,
		Init:    initConfig(s, ch),
	})
	if err != nil {
		return nil, err
	}
	return nw.finishResult(in, res.Tree, Metrics{
		SlotsUsed:      res.ConstructionSlots,
		ScheduleLength: res.Tree.NumSlots(),
		Iterations:     res.Iterations,
		Energy:         res.Energy,
	}, ch.Far)
}
