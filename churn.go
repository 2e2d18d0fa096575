package sinrconn

// The continuous-churn engine: Network.Churn streams a deterministic trace
// of joins, failures, correlated bursts, link showers, and mobility steps
// through a live schedule, repairing incrementally after every event.
//
// The engine is a degradation ladder (DESIGN.md §9):
//
//   1. Incremental repair — splice the surviving schedule verbatim, place
//      only the event's new links (core.RepairIncremental & friends); pure
//      integer surgery away from the failure.
//   2. Full restamp — when the Las Vegas re-attachment refuses to converge
//      after bounded retries, or when splice fragmentation exceeds the
//      drift budget, rebuild the schedule (greedy first-fit) while keeping
//      the tree.
//   3. Full rebuild — reconstruct the tree from scratch over the target
//      membership (core.Init with Participants).
//
// Every retry is reseeded deterministically and backs off in protocol
// rounds (more ExtraRounds per attempt), so a transiently unlucky run gets
// strictly more channel time rather than a different algorithm. Retries are
// spent only on ErrNotConverged — the Las Vegas failure mode — never on
// validator or geometry errors, which are deterministic and would fail
// identically again.
//
// Flap damping keeps a permanently failing region from consuming the
// engine: after K failures inside one spatial cell within the sliding
// window, the region is quarantined for a cooldown. Members there are muted
// (they keep relaying but never acknowledge, so no re-attachment lands on
// them — core.InitConfig.Mute) and joins into the region are refused with
// ErrDamped (recorded in the report; the trace continues).

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"sinrconn/internal/churn"
	"sinrconn/internal/core"
	"sinrconn/internal/faults"
	"sinrconn/internal/geom"
	"sinrconn/internal/sim"
	"sinrconn/internal/sinr"
	"sinrconn/internal/tree"
	"sinrconn/internal/workload"
)

// MobilityModel selects the movement pattern of a churn trace's mobility
// events.
type MobilityModel uint8

const (
	// MobilityNone disables movement (move events are rejected at Validate).
	MobilityNone MobilityModel = iota
	// MobilityWaypoint is the random-waypoint model: nodes travel to uniform
	// destinations at random speeds, pausing between legs.
	MobilityWaypoint
	// MobilityCityGrid is Manhattan mobility: nodes travel along a street
	// grid, turning at intersections.
	MobilityCityGrid
)

// String implements fmt.Stringer.
func (m MobilityModel) String() string {
	switch m {
	case MobilityNone:
		return "none"
	case MobilityWaypoint:
		return "waypoint"
	case MobilityCityGrid:
		return "citygrid"
	}
	return fmt.Sprintf("mobility(%d)", uint8(m))
}

// TraceSpec configures a deterministic churn trace: a (Seed, spec) pair
// always produces the same event stream against the same deployment.
// Event kinds arrive as a superposition of Poisson processes; a zero rate
// disables the kind, and at least one rate must be positive.
type TraceSpec struct {
	// Seed derives the trace's randomness AND the per-event protocol seeds.
	Seed int64
	// Events is the number of churn events to stream (must be ≥ 1).
	Events int

	// JoinRate / FailRate / BurstRate / ShowerRate / MoveRate are Poisson
	// arrival rates per time unit for the five event kinds: single-node
	// joins, single-node failures, correlated spatial failure bursts (a
	// disc dies together), link-failure showers, and mobility steps.
	JoinRate   float64
	FailRate   float64
	BurstRate  float64
	ShowerRate float64
	MoveRate   float64

	// BurstRadius is the kill-disc radius of correlated failures
	// (default 4).
	BurstRadius float64
	// ShowerMax bounds the links failed per shower (default 3).
	ShowerMax int

	// Mobility selects the movement model behind move events; required
	// (non-None) when MoveRate > 0.
	Mobility MobilityModel
	// MobilitySpeed scales node speed in distance per time unit
	// (default 1.5).
	MobilitySpeed float64
}

// Validate rejects unusable specs.
func (t TraceSpec) Validate() error {
	if t.Events < 1 {
		return fmt.Errorf("sinrconn: trace needs at least 1 event, got %d", t.Events)
	}
	if t.MoveRate > 0 && t.Mobility == MobilityNone {
		return errors.New("sinrconn: MoveRate > 0 requires a mobility model")
	}
	return t.rates().Validate()
}

func (t TraceSpec) rates() churn.Rates {
	return churn.Rates{
		Join:   t.JoinRate,
		Fail:   t.FailRate,
		Burst:  t.BurstRate,
		Shower: t.ShowerRate,
		Move:   t.MoveRate,
	}
}

// ChurnOption tunes a Churn run.
type ChurnOption func(*churnSettings)

type churnSettings struct {
	audit bool
}

// The degradation ladder's constants (DESIGN.md §9). Each rung gets
// churnRetries reseeded attempts before the engine falls to the next. A
// full restamp runs once the live schedule grows past driftBudget × its
// length at the last full stamp. Flap damping quarantines a region (a cell
// the size of the trace's burst radius) that accumulates dampK failures
// within dampWindow time units, for dampCooldown time units.
const (
	churnRetries = 3
	driftBudget  = 1.6
	dampK        = 3
	dampWindow   = 12
	dampCooldown = 40
)

// WithChurnAudit validates the full invariant battery — tree shape, strong
// connectivity, aggregation ordering, per-slot SINR feasibility under the
// session's channel mode — after EVERY event instead of only at the end.
// This is the metamorphic gate ("churn-then-repair is as good as
// rebuild-on-survivors"); it is O(links·n) per event, so leave it off for
// throughput runs.
func WithChurnAudit(on bool) ChurnOption {
	return func(s *churnSettings) { s.audit = on }
}

// ChurnStats aggregates what a churn run did.
type ChurnStats struct {
	// Events is the number of trace events processed.
	Events int
	// Joins/Fails/Bursts/Showers/Moves count applied events by kind.
	Joins, Fails, Bursts, Showers, Moves int
	// NodesFailed and NodesMoved count individual nodes across events.
	NodesFailed, NodesMoved int
	// IncrementalRepairs counts events resolved by schedule splicing;
	// Restamps counts full schedule recomputations (drift budget or ladder
	// rung 2); Rebuilds counts from-scratch tree reconstructions (rung 3).
	IncrementalRepairs, Restamps, Rebuilds int
	// Retries counts reseeded protocol re-runs after ErrNotConverged.
	Retries int
	// DampedJoins counts joins refused because they landed in a quarantined
	// region; MutedPeak is the largest member set muted during any single
	// repair.
	DampedJoins int
	MutedPeak   int
	// Compactions counts instance shrinks (dead fraction exceeded 1/2).
	Compactions int
	// SlotsUsed is the total channel time all repair protocols consumed.
	SlotsUsed int
	// PeakScheduleLength is the longest live schedule observed between
	// events (fragmentation high-water mark).
	PeakScheduleLength int
}

// ChurnReport is the outcome of a churn run.
type ChurnReport struct {
	// Final is the live result after the last event, bound to a derived
	// Network over the final deployment (shares the parent's pool).
	Final *Result
	// Stats aggregates the run.
	Stats ChurnStats
	// Soft lists the non-fatal typed errors the engine absorbed while the
	// trace continued: ErrDamped for refused joins, ErrNotConverged for
	// attempts that a later retry or ladder rung recovered. Test with
	// errors.Is.
	Soft []error
}

// Churn streams trace through the live deployment: it builds the initial
// bi-tree (Section 6 construction) over this Network's points and then
// applies trace.Events churn events — joins, failures, bursts, link
// showers, mobility steps — repairing the schedule incrementally after each
// (splicing untouched slots verbatim; see core.RepairIncremental), with
// bounded reseeded retries, flap damping of repeatedly failing regions, and
// graceful degradation to full restamp and full rebuild. The run is
// deterministic for a fixed (deployment, trace, options).
//
// A fatal error — the degradation ladder exhausted (ErrRetryExhausted,
// which wraps ErrNotConverged), context cancellation, or an invariant
// violation under WithChurnAudit — aborts the run. Everything else is
// absorbed into Report.Soft and the trace continues.
func (nw *Network) Churn(ctx context.Context, trace TraceSpec, opts ...ChurnOption) (*ChurnReport, error) {
	if err := trace.Validate(); err != nil {
		return nil, err
	}
	var cs churnSettings
	for _, o := range opts {
		o(&cs)
	}
	done, err := nw.beginOp()
	if err != nil {
		return nil, err
	}
	defer done()

	s := nw.base
	s.seed = trace.Seed
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

	burstRadius := trace.BurstRadius
	if burstRadius <= 0 {
		burstRadius = 4
	}
	gen, err := churn.NewGenerator(trace.Seed^0x5DEECE66D, trace.rates(), burstRadius, trace.ShowerMax)
	if err != nil {
		return nil, err
	}

	d := &churnDriver{
		nw:     nw,
		s:      s,
		cs:     cs,
		ch:     ch,
		in:     in,
		gen:    gen,
		damper: churn.NewDamper(dampK, dampWindow, dampCooldown, burstRadius),
	}

	// The mobility stepper is built BEFORE the initial tree: the city-grid
	// model snaps nodes onto its street lattice, and syncing that snap into
	// the instance first means the tree is constructed over the positions
	// the nodes will actually move from (stepper and instance never
	// disagree about where anything is).
	if trace.Mobility != MobilityNone {
		speed := trace.MobilitySpeed
		if speed <= 0 {
			speed = 1.5
		}
		d.mobSpeed = speed
		d.mobModel = trace.Mobility
		d.mobOrigin, _ = geom.BoundingBox(in.Points())
		d.rebuildStepper(trace.Seed ^ 0x2545F491)
		if err := d.syncStepper(); err != nil {
			return nil, fmt.Errorf("sinrconn: mobility snap: %w", err)
		}
	}

	// Initial construction (rung-3 machinery doubles as the bootstrap).
	ires, err := core.Init(ctx, d.in, d.cfg(0))
	if err != nil {
		return nil, fmt.Errorf("sinrconn: churn bootstrap: %w", err)
	}
	d.bt = ires.Tree
	d.bt.Compact()
	d.stats.SlotsUsed += ires.SlotsUsed
	d.baseline = d.bt.NumSlots()
	d.stats.PeakScheduleLength = d.baseline
	if d.stepper != nil {
		// Nodes the construction left out (none, normally) stay parked.
		alive := make(map[int]bool, len(d.bt.Nodes))
		for _, v := range d.bt.Nodes {
			alive[v] = true
		}
		for v := 0; v < d.in.Len(); v++ {
			if !alive[v] {
				d.stepper.Park(v)
			}
		}
	}

	for i := 0; i < trace.Events; i++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("sinrconn: churn canceled at event %d: %w", i, err)
		}
		ev, err := d.gen.Next(churn.State{
			Points: d.in.Points(),
			Alive:  d.bt.Nodes,
			Links:  d.links(),
		})
		if err != nil {
			return nil, fmt.Errorf("sinrconn: churn trace: %w", err)
		}
		if err := d.apply(ctx, ev); err != nil {
			return nil, fmt.Errorf("sinrconn: churn event %d (%v): %w", i, ev.Kind, err)
		}
		d.stats.Events++
		if k := d.bt.NumSlots(); k > d.stats.PeakScheduleLength {
			d.stats.PeakScheduleLength = k
		}
		if err := d.maintain(); err != nil {
			return nil, fmt.Errorf("sinrconn: churn event %d: %w", i, err)
		}
		if cs.audit {
			if err := auditTree(d.bt, d.in, d.ch.Far); err != nil {
				return nil, fmt.Errorf("sinrconn: churn audit after event %d (%v): %w", i, ev.Kind, err)
			}
		}
	}

	final, err := nw.derive(d.in).finishResult(d.in, d.bt, Metrics{
		SlotsUsed:      d.stats.SlotsUsed,
		ScheduleLength: d.bt.NumSlots(),
	}, d.ch.Far)
	if err != nil {
		return nil, err
	}
	return &ChurnReport{
		Final: final,
		Stats: d.stats,
		Soft:  d.soft,
	}, nil
}

// churnDriver is the engine's mutable state across one trace.
type churnDriver struct {
	nw     *Network
	s      settings
	cs     churnSettings
	ch     sim.Config // every engine's channel; swapInstance re-plans ch.Far
	in     *sinr.Instance
	bt     *tree.BiTree
	gen    *churn.Generator
	damper *churn.Damper

	forbidden []sinr.Link
	stepper   workload.Stepper
	mobModel  MobilityModel
	mobSpeed  float64
	mobSeed   int64
	mobOrigin geom.Point // city-grid street anchor, fixed for the whole run
	baseline  int
	seedCtr   int64
	stats     ChurnStats
	soft      []error
}

func (d *churnDriver) links() []sinr.Link {
	out := make([]sinr.Link, len(d.bt.Up))
	for i, tl := range d.bt.Up {
		out[i] = tl.L
	}
	return out
}

// cfg derives the protocol config for one attempt; extraRounds > 0 is the
// retry backoff (added safety rounds at the top length class).
func (d *churnDriver) cfg(extraRounds int) core.InitConfig {
	c := initConfig(d.s, d.ch)
	d.seedCtr++
	c.Channel.Seed = d.s.seed + d.seedCtr*0x9E3779B9
	if extraRounds > 0 {
		c.ExtraRounds = 64 + extraRounds
	}
	c.Forbidden = d.forbidden
	c.Mute = d.muted()
	if n := len(c.Mute); n > d.stats.MutedPeak {
		d.stats.MutedPeak = n
	}
	return c
}

// injectRepairFail consults the handle's fault injector at the
// churn.repair.fail site. A firing returns a synthetic non-convergence
// (wrapping core.ErrNotConverged) so the degradation ladder treats it
// exactly like a real Las Vegas failure: it consumes a retry rung,
// lands in the soft-error log, and — at rate 1.0 — drives the ladder
// through rebuild into ErrRetryExhausted.
func (d *churnDriver) injectRepairFail() error {
	if d.s.injector == nil {
		return nil
	}
	act, ok := d.s.injector.Fire(faults.ChurnRepairFail)
	if !ok {
		return nil
	}
	return fmt.Errorf("sinrconn: injected fault %s #%d: %w", act.Site, act.Seq, core.ErrNotConverged)
}

// muted lists the alive members currently inside quarantined regions.
func (d *churnDriver) muted() []int {
	if d.bt == nil {
		return nil
	}
	now := d.gen.Now()
	if d.damper.Quiet(now) {
		return nil
	}
	var out []int
	for _, v := range d.bt.Nodes {
		if d.damper.Damped(d.in.Point(v), now) {
			out = append(out, v)
		}
	}
	return out
}

// ladder runs one repair operation through bounded reseeded retries,
// falling through the degradation rungs: op (incremental), then restamp
// (when restampable), then rebuild-from-scratch over the target membership.
// Only ErrNotConverged consumes retries; any other error aborts
// immediately.
func (d *churnDriver) ladder(ctx context.Context, op func(cfg core.InitConfig) (*tree.BiTree, int, error), target []int) error {
	var lastErr error
	for attempt := 0; attempt < churnRetries; attempt++ {
		var (
			bt    *tree.BiTree
			slots int
			err   error
		)
		// Fault site churn.repair.fail: an injected attempt fails as a
		// non-convergence before the repair runs, consuming one retry rung
		// exactly like a real Las Vegas failure.
		if err = d.injectRepairFail(); err == nil {
			bt, slots, err = op(d.cfg(attempt * 64))
		}
		if err == nil {
			d.bt = bt
			d.stats.SlotsUsed += slots
			return nil
		}
		if !errors.Is(err, core.ErrNotConverged) {
			return err
		}
		d.stats.Retries++
		d.soft = append(d.soft, err)
		lastErr = err
	}
	// Rung 3: full rebuild over the target membership. (Rung 2, the full
	// restamp, only applies to drift — a non-converged re-attachment has no
	// merged tree to restamp, so the ladder falls straight through.)
	return d.rebuild(ctx, target, lastErr)
}

// rebuild is the ladder's last rung: reconstruct the tree from scratch
// over the target membership, with the same bounded reseeded retries.
func (d *churnDriver) rebuild(ctx context.Context, target []int, lastErr error) error {
	for attempt := 0; attempt < churnRetries; attempt++ {
		if err := d.injectRepairFail(); err != nil {
			d.stats.Retries++
			d.soft = append(d.soft, err)
			lastErr = err
			continue
		}
		cfg := d.cfg(attempt * 64)
		cfg.Participants = target
		cfg.Mute = nil // a rebuild must be able to use every survivor
		ires, err := core.Init(ctx, d.in, cfg)
		if err == nil {
			d.bt = ires.Tree
			d.bt.Compact()
			d.stats.SlotsUsed += ires.SlotsUsed
			d.stats.Rebuilds++
			d.baseline = d.bt.NumSlots()
			return nil
		}
		if !errors.Is(err, core.ErrNotConverged) {
			return err
		}
		d.stats.Retries++
		d.soft = append(d.soft, err)
		lastErr = err
	}
	return fmt.Errorf("%w (last: %v)", ErrRetryExhausted, lastErr)
}

// apply executes one trace event through the ladder.
func (d *churnDriver) apply(ctx context.Context, ev churn.Event) error {
	switch ev.Kind {
	case churn.KindJoin:
		return d.applyJoin(ctx, ev)
	case churn.KindFail, churn.KindBurst:
		return d.applyFailure(ctx, ev)
	case churn.KindShower:
		return d.applyShower(ctx, ev)
	case churn.KindMove:
		return d.applyMove(ctx, ev)
	}
	return fmt.Errorf("sinrconn: unknown churn event kind %v", ev.Kind)
}

func (d *churnDriver) applyJoin(ctx context.Context, ev churn.Event) error {
	if d.damper.Damped(ev.Point, ev.Time) {
		d.stats.DampedJoins++
		d.soft = append(d.soft, fmt.Errorf("%w: join at (%.1f, %.1f) refused at t=%.2f",
			ErrDamped, ev.Point.X, ev.Point.Y, ev.Time))
		return nil
	}
	in2, err := d.in.Extend([]geom.Point{ev.Point})
	if err != nil {
		return err
	}
	if err := d.swapInstance(in2); err != nil {
		return err
	}
	joiner := in2.Len() - 1
	err = d.ladder(ctx, func(cfg core.InitConfig) (*tree.BiTree, int, error) {
		jres, err := core.Join(ctx, d.in, d.bt, []int{joiner}, cfg)
		if err != nil {
			return nil, 0, err
		}
		return jres.Tree, jres.SlotsUsed, nil
	}, append(append([]int(nil), d.bt.Nodes...), joiner))
	if err != nil {
		return err
	}
	d.stats.Joins++
	d.stats.IncrementalRepairs++ // joins are always splices (stamped before the schedule)
	if d.stepper != nil {
		d.stepper.AddObstacle(ev.Point)
	}
	return nil
}

func (d *churnDriver) applyFailure(ctx context.Context, ev churn.Event) error {
	now := ev.Time
	for _, v := range ev.Nodes {
		d.damper.Record(d.in.Point(v), now)
	}
	survivors := make([]int, 0, len(d.bt.Nodes)-len(ev.Nodes))
	failed := make(map[int]bool, len(ev.Nodes))
	for _, v := range ev.Nodes {
		failed[v] = true
	}
	for _, v := range d.bt.Nodes {
		if !failed[v] {
			survivors = append(survivors, v)
		}
	}
	err := d.ladder(ctx, func(cfg core.InitConfig) (*tree.BiTree, int, error) {
		rres, err := core.RepairIncremental(ctx, d.in, d.bt, ev.Nodes, cfg)
		if err != nil {
			return nil, 0, err
		}
		return rres.Tree, rres.SlotsUsed, nil
	}, survivors)
	if err != nil {
		return err
	}
	if ev.Kind == churn.KindBurst {
		d.stats.Bursts++
	} else {
		d.stats.Fails++
	}
	d.stats.NodesFailed += len(ev.Nodes)
	d.stats.IncrementalRepairs++
	if d.stepper != nil {
		for _, v := range ev.Nodes {
			d.stepper.Park(v)
		}
	}
	return nil
}

func (d *churnDriver) applyShower(ctx context.Context, ev churn.Event) error {
	now := ev.Time
	for _, l := range ev.Links {
		d.damper.Record(d.in.Point(l.From), now)
	}
	// Link failures are permanent: forbid re-formation for the rest of the
	// trace (and in every rebuild).
	d.forbidden = append(d.forbidden, ev.Links...)
	err := d.ladder(ctx, func(cfg core.InitConfig) (*tree.BiTree, int, error) {
		rres, err := core.RepairLinksIncremental(ctx, d.in, d.bt, ev.Links, cfg)
		if err != nil {
			return nil, 0, err
		}
		return rres.Tree, rres.SlotsUsed, nil
	}, append([]int(nil), d.bt.Nodes...))
	if err != nil {
		return err
	}
	d.stats.Showers++
	d.stats.IncrementalRepairs++
	return nil
}

func (d *churnDriver) applyMove(ctx context.Context, ev churn.Event) error {
	if d.stepper == nil {
		return errors.New("sinrconn: move event without a mobility model")
	}
	moved := d.stepper.Step(ev.Dt)
	if len(moved) == 0 {
		d.stats.Moves++
		return nil
	}
	pos := d.stepper.Positions()
	to := make([]geom.Point, len(moved))
	for i, v := range moved {
		to[i] = pos[v]
	}
	in2, err := d.in.MoveTo(moved, to)
	if err != nil {
		return err
	}
	inTree := make(map[int]bool, len(d.bt.Nodes))
	for _, v := range d.bt.Nodes {
		inTree[v] = true
	}
	var movers []int
	for _, v := range moved {
		if inTree[v] {
			movers = append(movers, v)
		}
	}
	if err := d.swapInstance(in2); err != nil {
		return err
	}
	if len(movers) == 0 {
		d.stats.Moves++
		return nil
	}
	if len(movers) >= len(d.bt.Nodes) {
		// Everyone moved at once: there is no intact remainder to splice
		// into, so incremental repair is undefined — go straight to the
		// rebuild rung over the (moved) membership.
		if err := d.rebuild(ctx, append([]int(nil), d.bt.Nodes...), nil); err != nil {
			return err
		}
		d.stats.Moves++
		d.stats.NodesMoved += len(movers)
		return nil
	}
	err = d.ladder(ctx, func(cfg core.InitConfig) (*tree.BiTree, int, error) {
		rres, err := core.MoveIncremental(ctx, d.in, d.bt, movers, cfg)
		if err != nil {
			return nil, 0, err
		}
		return rres.Tree, rres.SlotsUsed, nil
	}, append([]int(nil), d.bt.Nodes...))
	if err != nil {
		return err
	}
	d.stats.Moves++
	d.stats.NodesMoved += len(movers)
	d.stats.IncrementalRepairs++
	return nil
}

// swapInstance installs a derived instance (extended, moved, or shrunk) and
// re-resolves the channel mode over it. Far-field plans ride along on
// Extend; MoveTo and Shrink rebuild them lazily on first engine use.
func (d *churnDriver) swapInstance(in *sinr.Instance) error {
	ff, err := farFieldFor(in, d.s)
	if err != nil {
		return err
	}
	d.in = in
	d.ch.Far = ff
	return nil
}

// maintain enforces the drift budget (full restamp when splice
// fragmentation exceeds it) and compacts the instance when more than half
// its points are dead weight.
func (d *churnDriver) maintain() error {
	if k := d.bt.NumSlots(); float64(k) > driftBudget*float64(max(1, d.baseline)) {
		if _, err := d.bt.Restamp(d.in); err != nil {
			return fmt.Errorf("drift restamp: %w", err)
		}
		d.stats.Restamps++
		d.baseline = d.bt.NumSlots()
	}
	if n := d.in.Len(); n >= 64 && len(d.bt.Nodes)*2 < n {
		if err := d.compact(); err != nil {
			return fmt.Errorf("compaction: %w", err)
		}
	}
	return nil
}

// compact shrinks the instance to the live membership, remapping the tree
// and the forbidden-link set through the survivor index map and rebuilding
// the mobility stepper over the compacted world.
func (d *churnDriver) compact() error {
	alive := make(map[int]bool, len(d.bt.Nodes))
	for _, v := range d.bt.Nodes {
		alive[v] = true
	}
	var removed []int
	for v := 0; v < d.in.Len(); v++ {
		if !alive[v] {
			removed = append(removed, v)
		}
	}
	in2, oldToNew, err := d.in.Shrink(removed)
	if err != nil {
		return err
	}
	nt := &tree.BiTree{Root: oldToNew[d.bt.Root]}
	for _, v := range d.bt.Nodes {
		nt.Nodes = append(nt.Nodes, oldToNew[v])
	}
	for _, tl := range d.bt.Up {
		tl.L.From = oldToNew[tl.L.From]
		tl.L.To = oldToNew[tl.L.To]
		nt.Up = append(nt.Up, tl)
	}
	var nf []sinr.Link
	for _, l := range d.forbidden {
		if oldToNew[l.From] >= 0 && oldToNew[l.To] >= 0 {
			nf = append(nf, sinr.Link{From: oldToNew[l.From], To: oldToNew[l.To]})
		}
	}
	d.forbidden = nf
	d.bt = nt
	if err := d.swapInstance(in2); err != nil {
		return err
	}
	d.stats.Compactions++
	if d.stepper != nil {
		d.rebuildStepper(d.mobSeed + int64(d.stats.Compactions))
	}
	return nil
}

// rebuildStepper (re)creates the mobility stepper over the CURRENT instance
// points: alive nodes move, dead ones are parked in place, and there are no
// out-of-population obstacles (every instance point is in the population).
// The city-grid street anchor is fixed at bootstrap, so a rebuild over
// already-snapped points is the identity — no re-snap drift.
func (d *churnDriver) rebuildStepper(seed int64) {
	d.mobSeed = seed
	rng := rand.New(rand.NewSource(seed))
	pts := d.in.Points()
	switch d.mobModel {
	case MobilityWaypoint:
		d.stepper = workload.NewRandomWaypoint(rng, pts, d.mobSpeed/3, d.mobSpeed, 1)
	case MobilityCityGrid:
		d.stepper = workload.NewCityGrid(rng, pts, d.mobOrigin, 8, d.mobSpeed, 0.4)
	default:
		d.stepper = nil
		return
	}
	if d.bt == nil {
		return // bootstrap: everyone is (about to be) alive
	}
	alive := make(map[int]bool, len(d.bt.Nodes))
	for _, v := range d.bt.Nodes {
		alive[v] = true
	}
	for v := 0; v < len(pts); v++ {
		if !alive[v] {
			d.stepper.Park(v)
		}
	}
}

// syncStepper folds any position changes the stepper made at construction
// (the city-grid street snap) back into the instance, so instance and
// stepper agree before the first event.
func (d *churnDriver) syncStepper() error {
	pos := d.stepper.Positions()
	pts := d.in.Points()
	var moved []int
	var to []geom.Point
	for v := range pts {
		if pos[v] != pts[v] {
			moved = append(moved, v)
			to = append(to, pos[v])
		}
	}
	if len(moved) == 0 {
		return nil
	}
	in2, err := d.in.MoveTo(moved, to)
	if err != nil {
		return err
	}
	return d.swapInstance(in2)
}
