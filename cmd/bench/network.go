package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"sinrconn"
	"sinrconn/internal/geom"
	"sinrconn/internal/sinr"
	"sinrconn/internal/workload"
)

// The geometry of every workload: a jittered grid, the deployment the
// repository's other benchmarks use.
const (
	gridSpacing = 2.6
	gridJitter  = 0.8
)

// A run sets its workload up at least minSetupCycles times and until it
// has spent setupTime doing so, at most maxSetupCycles times, so cheap
// set-ups are sampled more; setup_s is the median cycle.
const (
	minSetupCycles = 5
	maxSetupCycles = 50
	setupTime      = time.Second
)

// setupLoop runs set-up cycles: teardown of the previous cycle's result
// (from the second cycle on) and a full collection, both untimed, then a
// timed setup. It returns the median setup time in seconds.
func setupLoop(setup, teardown func() error) (float64, error) {
	var cycles []float64
	var total time.Duration
	for len(cycles) < minSetupCycles || total < setupTime && len(cycles) < maxSetupCycles {
		if len(cycles) > 0 {
			if err := teardown(); err != nil {
				return 0, err
			}
		}
		runtime.GC()
		t := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		d := time.Since(t)
		total += d
		cycles = append(cycles, d.Seconds())
	}
	return median(cycles), nil
}

// grid returns the workload geometry for seed.
func grid(seed int64, n int) []geom.Point {
	return workload.JitteredGrid(rand.New(rand.NewSource(seed)), n, gridSpacing, gridJitter)
}

// deployment returns the workload geometry for seed as public points.
func deployment(seed int64, n int) []sinrconn.Point {
	g := grid(seed, n)
	pts := make([]sinrconn.Point, len(g))
	for i, p := range g {
		pts[i] = sinrconn.Point{X: p.X, Y: p.Y}
	}
	return pts
}

// opSeed is the protocol seed of operation i of a run. Every operation
// gets a seed of its own, so no construction is answered from the
// Network's result memo.
func opSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

// liveHeapMiB is the heap still reachable after a full collection.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timedLoop calls step until the run's measured time is spent: after
// minSteps, it starts another step only while the step is expected to end
// less than half a mean step past budget.
func timedLoop(budget time.Duration, minSteps int, step func(i int)) {
	start := time.Now()
	for i := 0; ; i++ {
		if el := time.Since(start); i >= minSteps && (i == 0 || el+el/time.Duration(2*i) > budget) {
			return
		}
		step(i)
	}
}

// netWorkload times operations on one warm sinrconn.Network over a
// jittered grid of n nodes. An operation either constructs every pipeline
// of pipelines once on the operation's protocol seed, or, when events > 0,
// streams one churn trace of that many events. Every constructed tree is
// checked.
type netWorkload struct {
	name      string
	n         int
	maxRelErr float64 // > 0 opens the Network with far-field physics
	pipelines []sinrconn.Pipeline
	events    int
	// countOps operations always run, however long they take. The paper's
	// slot counts are reported over exactly these, so they repeat for a
	// seed whatever the speed of the code.
	countOps int
}

func (w *netWorkload) Name() string { return w.name }

// open is one set-up cycle: Open, then a Run on an already-canceled
// context. That Run builds everything a construction needs before its
// first slot — the gain table or the far-field plan, the engine, the
// worker pool — and stops at its first cancellation check.
func (w *netWorkload) open(pts []sinrconn.Point, extra ...sinrconn.Option) (nw *sinrconn.Network, openD, warmD time.Duration, err error) {
	var opts []sinrconn.Option
	if w.maxRelErr > 0 {
		opts = append(opts, sinrconn.WithMaxRelError(w.maxRelErr))
	}
	t0 := time.Now()
	nw, err = sinrconn.Open(pts, append(opts, extra...)...)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("open: %w", err)
	}
	t1 := time.Now()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = nw.Run(ctx, sinrconn.PipelineInit)
	warmD = time.Since(t1)
	if !errors.Is(err, context.Canceled) {
		nw.Close()
		return nil, 0, 0, fmt.Errorf("warm-up run on a canceled context returned %v, want context.Canceled", err)
	}
	return nw, t1.Sub(t0), warmD, nil
}

// sample is one timed construction or churn trace.
type sample struct {
	pipeline    string // sinrconn.Pipeline name, or churnOp
	run, verify time.Duration
	metrics     sinrconn.Metrics
	churn       sinrconn.ChurnStats
	slot        time.Duration // traced runs: run time booked to slots
}

const churnOp = "churn"

// op runs one operation on nw with protocol seed seed, tracing it when tr
// is non-nil. It returns the samples that succeeded, how many were
// attempted, and the first failure.
func (w *netWorkload) op(ctx context.Context, nw *sinrconn.Network, tr *tracer, seed int64) ([]sample, int, error) {
	if w.events > 0 {
		s, err := w.churnTrace(ctx, nw, tr, seed)
		if err != nil {
			return nil, 1, err
		}
		return []sample{s}, 1, nil
	}
	var out []sample
	for _, p := range w.pipelines {
		var s sample
		var res *sinrconn.Result
		err := traced(tr, &s, func() (err error) {
			res, err = nw.Run(ctx, p, sinrconn.WithSeed(seed))
			return err
		})
		if err == nil {
			t := time.Now()
			err = checkTree(res, p.Ordered(), w.n)
			s.verify = time.Since(t)
		}
		if err != nil {
			return out, len(w.pipelines), fmt.Errorf("%v seed %d: %w", p, seed, err)
		}
		s.pipeline = p.String()
		s.metrics = res.Metrics
		out = append(out, s)
	}
	return out, len(w.pipelines), nil
}

// traced times call into s.run and, with a tracer, the part of it booked
// to slots into s.slot.
func traced(tr *tracer, s *sample, call func() error) error {
	var before time.Duration
	if tr != nil {
		tr.start()
		before = tr.slotTime()
	}
	t := time.Now()
	err := call()
	s.run = time.Since(t)
	if tr != nil {
		s.slot = tr.slotTime() - before
	}
	return err
}

// churnMix is the event mix of the repository's churn benchmark — joins,
// single failures, correlated bursts and link showers at its rates —
// without its mobility steps. A random-waypoint step moves nearly every
// node, costs tens to hundreds of times a join, and varies sevenfold in
// slots between traces, so a mean over the few traces a run has time for
// would not repeat.
func churnMix(seed int64, events int) sinrconn.TraceSpec {
	return sinrconn.TraceSpec{
		Seed:       seed,
		Events:     events,
		JoinRate:   1,
		FailRate:   1.2,
		BurstRate:  0.25,
		ShowerRate: 0.5,
	}
}

func (w *netWorkload) churnTrace(ctx context.Context, nw *sinrconn.Network, tr *tracer, seed int64) (sample, error) {
	s := sample{pipeline: churnOp}
	var rep *sinrconn.ChurnReport
	err := traced(tr, &s, func() (err error) {
		rep, err = nw.Churn(ctx, churnMix(seed, w.events))
		return err
	})
	if err == nil && rep.Stats.Events != w.events {
		err = fmt.Errorf("%d events processed, want %d", rep.Stats.Events, w.events)
	}
	if err == nil {
		t := time.Now()
		err = checkTree(rep.Final, true, rep.Final.Tree.NumNodes)
		s.verify = time.Since(t)
	}
	if err != nil {
		return s, fmt.Errorf("churn seed %d: %w", seed, err)
	}
	s.metrics = rep.Final.Metrics
	s.churn = rep.Stats
	return s, nil
}

// checkTree checks a constructed tree: the full Verify for ordered trees;
// for the rescheduled tree, whose schedule may break the bi-tree ordering,
// that it spans n nodes with n−1 links.
func checkTree(r *sinrconn.Result, ordered bool, n int) error {
	if ordered {
		return r.Tree.Verify()
	}
	if r.Tree.NumNodes != n || len(r.Tree.Up) != n-1 {
		return fmt.Errorf("tree spans %d nodes with %d links, want %d and %d", r.Tree.NumNodes, len(r.Tree.Up), n, n-1)
	}
	return nil
}

// perUnit is an operation's time per unit of work: per construction with
// its check, or per churn event.
func (w *netWorkload) perUnit(op []sample) time.Duration {
	var d time.Duration
	for _, s := range op {
		d += s.run + s.verify
	}
	units := len(op)
	if w.events > 0 {
		units = w.events
	}
	return d / time.Duration(units)
}

func (w *netWorkload) run(rc runConfig, rep *report) error {
	ctx := context.Background()
	pts := deployment(rc.seed, w.n)
	var (
		nw           *sinrconn.Network
		opens, warms []float64
	)
	setup, err := setupLoop(func() error {
		var openD, warmD time.Duration
		var err error
		nw, openD, warmD, err = w.open(pts)
		opens = append(opens, openD.Seconds())
		warms = append(warms, warmD.Seconds())
		return err
	}, func() error { return nw.Close() })
	if err != nil {
		return err
	}
	defer nw.Close()
	rep.set("setup_s", setup)
	rep.set("live_heap_mib", liveHeapMiB())
	rep.set("sinrconn.open_s", median(opens))
	rep.set("sinrconn.warm_s", median(warms))

	runOp := func(i int, nw *sinrconn.Network, tr *tracer) ([]sample, bool) {
		s, attempted, err := w.op(ctx, nw, tr, opSeed(rc.seed, i))
		rep.attempt(attempted, attempted-len(s), err)
		return s, err == nil
	}
	if !rc.trace {
		var perOp []float64
		var counted []sample
		timedLoop(rc.budget, w.countOps, func(i int) {
			s, ok := runOp(i, nw, nil)
			if ok {
				perOp = append(perOp, millis(w.perUnit(s)))
			}
			if i < w.countOps {
				counted = append(counted, s...)
			}
		})
		w.e2e(rep, perOp, counted)
		return nil
	}

	// The traced run: layer timings on an instance the benchmark owns,
	// then every operation twice with the same seed — untraced on the warm
	// Network and traced on a second Network that observes every slot, in
	// alternating order so drift in machine speed favours neither. The
	// second Network is needed because an observed run answered from the
	// memo replays no slot events.
	if err := sinrLayers(rep, grid(rc.seed, w.n), w.maxRelErr); err != nil {
		return err
	}
	runtime.GC() // free the bench-owned gain table before the traced Network builds its own
	tr := &tracer{}
	tnw, _, _, err := w.open(pts, sinrconn.WithObserver(tr.observe))
	if err != nil {
		return err
	}
	defer tnw.Close()
	cache0 := nw.CacheStats()
	var samples, tsamples []sample
	var plain, traced time.Duration
	timedLoop(rc.budget, 1, func(i int) {
		var s, ts []sample
		var ok, tok bool
		if i%2 == 0 {
			s, ok = runOp(i, nw, nil)
			ts, tok = runOp(i, tnw, tr)
		} else {
			ts, tok = runOp(i, tnw, tr)
			s, ok = runOp(i, nw, nil)
		}
		if ok && tok {
			plain += runTime(s)
			traced += runTime(ts)
		}
		samples = append(samples, s...)
		tsamples = append(tsamples, ts...)
	})
	cache1 := nw.CacheStats()
	rep.setCache(cache1.Hits-cache0.Hits, cache1.Misses-cache0.Misses, cache1.Evictions-cache0.Evictions, cache1.Coalesced-cache0.Coalesced)
	if plain > 0 {
		rep.set("trace_overhead_frac", float64(traced)/float64(plain)-1)
	}
	w.layers(rep, samples, tsamples, tr)
	return nil
}

// runTime is the time spent in Run or Churn calls, checks excluded.
func runTime(samples []sample) time.Duration {
	var d time.Duration
	for _, s := range samples {
		d += s.run
	}
	return d
}

// e2e sets the end-to-end metrics other than set-up and heap: the mean
// over operations of the time per unit of work, and the paper's slot
// counts over the counted operations.
func (w *netWorkload) e2e(rep *report, perOp []float64, counted []sample) {
	var sched, cons, agg []float64
	for _, s := range counted {
		sched = append(sched, float64(s.metrics.ScheduleLength))
		c := float64(s.metrics.SlotsUsed)
		if s.pipeline == churnOp {
			c /= float64(w.events)
		}
		cons = append(cons, c)
		if s.metrics.AggregationLatency > 0 {
			agg = append(agg, float64(s.metrics.AggregationLatency))
		}
	}
	rep.set("op_ms", mean(perOp))
	rep.set("schedule_slots", mean(sched))
	rep.set("construction_slots", mean(cons))
	rep.set("aggregation_latency_slots", mean(agg))
}

// layers sets the per-layer metrics of a traced run from the untraced
// samples, the traced samples of the same operations, and the tracer.
func (w *netWorkload) layers(rep *report, samples, tsamples []sample, tr *tracer) {
	var slots time.Duration
	nonSlot := map[string][]float64{}
	for _, s := range tsamples {
		slots += s.slot
		nonSlot[s.pipeline] = append(nonSlot[s.pipeline], (s.run - s.slot).Seconds())
	}
	for _, p := range sinrconn.Pipelines() {
		if v, ok := nonSlot[p.String()]; ok {
			rep.set(nonSlotName(p), mean(v))
		}
	}
	per := func(x int) float64 { return ratio(float64(x), float64(len(tsamples))) }
	rep.set("sim.slots", per(tr.slots))
	rep.set("sim.exact_slots", per(tr.exactSlots))
	rep.set("sim.far_slots", per(tr.farSlots))
	rep.set("sim.dense_slots", per(tr.denseSlots))
	rep.set("sim.exact_slot_us", ratio(float64(tr.exactTime)/1e3, float64(tr.exactTimed)))
	rep.set("sim.far_slot_us", ratio(float64(tr.farTime)/1e3, float64(tr.farTimed)))
	rep.set("sim.senders_per_slot", ratio(float64(tr.senders), float64(tr.slots)))
	rep.set("sim.deliveries_per_sender", ratio(float64(tr.deliveries), float64(tr.senders)))
	rep.set("sim.slot_frac", ratio(float64(slots), float64(runTime(tsamples))))

	var verify, rounds, iters []float64
	var churn sinrconn.ChurnStats // summed over the traces
	traces := 0
	for _, s := range samples {
		verify = append(verify, s.verify.Seconds())
		if s.metrics.Rounds > 0 {
			rounds = append(rounds, float64(s.metrics.Rounds))
		}
		if s.metrics.Iterations > 0 {
			iters = append(iters, float64(s.metrics.Iterations))
		}
		if s.pipeline == churnOp {
			traces++
			churn.IncrementalRepairs += s.churn.IncrementalRepairs
			churn.Restamps += s.churn.Restamps
			churn.Rebuilds += s.churn.Rebuilds
			churn.Retries += s.churn.Retries
			churn.Compactions += s.churn.Compactions
			churn.PeakScheduleLength += s.churn.PeakScheduleLength
		}
	}
	rep.set("tree.verify_s", mean(verify))
	rep.set("core.rounds", mean(rounds))
	rep.set("core.iterations", mean(iters))
	perTrace := func(x int) float64 { return ratio(float64(x), float64(traces)) }
	rep.set("churn.incremental_repairs", perTrace(churn.IncrementalRepairs))
	rep.set("churn.restamps", perTrace(churn.Restamps))
	rep.set("churn.rebuilds", perTrace(churn.Rebuilds))
	rep.set("churn.retries", perTrace(churn.Retries))
	rep.set("churn.compactions", perTrace(churn.Compactions))
	rep.set("churn.peak_schedule", perTrace(churn.PeakScheduleLength))
}

// nonSlotName is the per-layer metric of pipeline p's run time outside
// slots: protocol bookkeeping between engine runs, engine set-up, latency
// replay.
func nonSlotName(p sinrconn.Pipeline) string { return "core." + p.String() + ".non_slot_s" }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sinrLayers times the physics layer's set-up steps on an instance the
// benchmark owns over the workload's points: Δ, then the gain table
// (exact physics) or the quadtree plan (far-field physics).
func sinrLayers(rep *report, pts []geom.Point, maxRelErr float64) error {
	in, err := sinr.NewInstance(pts, sinr.DefaultParams())
	if err != nil {
		return err
	}
	t := time.Now()
	in.Delta()
	rep.set("sinr.delta_s", time.Since(t).Seconds())
	t = time.Now()
	if maxRelErr == 0 {
		tab := in.GainTable()
		rep.set("sinr.gain_table_s", time.Since(t).Seconds())
		rep.set("sinr.gain_table_mib", float64(8*len(tab))/(1<<20))
	} else {
		if _, err := in.QuadTree(maxRelErr); err != nil {
			return err
		}
		rep.set("sinr.plan_s", time.Since(t).Seconds())
	}
	return nil
}
