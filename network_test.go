package sinrconn

// Tests for the session-oriented API: context cancellation inside the slot
// loop, concurrent batch execution on one handle, memoization, and option
// validation.

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"
)

// runCtx is shorthand for the tests below.
var bg = context.Background()

// TestNetworkRunCancellation: a canceled context aborts every pipeline
// and every dynamic operation (Join, Repair, RepairLinks) mid-construction
// with an error wrapping ctx.Err(), and the handle (and its shared worker
// pool) remains fully usable afterwards.
func TestNetworkRunCancellation(t *testing.T) {
	pts := uniformPoints(11, 40)
	nw, err := Open(pts, WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()

	canceled, cancel := context.WithCancel(bg)
	cancel()
	for _, p := range Pipelines() {
		if _, err := nw.Run(canceled, p); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: error %v does not wrap context.Canceled", p, err)
		}
	}
	// The engine/pool must be left reusable: the same handle completes a
	// real run after the aborted ones.
	res, err := nw.Run(bg, PipelineInit)
	if err != nil {
		t.Fatalf("run after cancellation: %v", err)
	}
	if res.Tree.NumNodes != len(pts) {
		t.Fatalf("post-cancel tree spans %d of %d", res.Tree.NumNodes, len(pts))
	}
	if err := res.Tree.Verify(); err != nil {
		t.Fatalf("post-cancel verify: %v", err)
	}

	// The dynamic operations abort the same way. Failing an interior node
	// orphans a subtree, so the repair really runs a join.
	interior := interiorNode(t, res)
	far := Point{}
	for _, p := range pts {
		far.X, far.Y = max(far.X, p.X+3), max(far.Y, p.Y+3)
	}
	ops := map[string]func() (*Result, error){
		"join":         func() (*Result, error) { return nw.Join(canceled, res, []Point{far}) },
		"repair":       func() (*Result, error) { return nw.Repair(canceled, res, []int{interior}) },
		"repair-links": func() (*Result, error) { return nw.RepairLinks(canceled, res, []Link{res.Tree.Up[0].Link}) },
	}
	for name, op := range ops {
		if _, err := op(); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: error %v does not wrap context.Canceled", name, err)
		}
	}
	repaired, err := nw.Repair(bg, res, []int{interior})
	if err != nil {
		t.Fatalf("repair after cancellation: %v", err)
	}
	if repaired.Tree.NumNodes != len(pts)-1 {
		t.Fatalf("post-cancel repair spans %d of %d", repaired.Tree.NumNodes, len(pts)-1)
	}
	if err := repaired.Tree.Verify(); err != nil {
		t.Fatalf("post-cancel repair verify: %v", err)
	}
}

// TestNetworkRunDeadlineMidConstruction arms a deadline far shorter than
// the construction and requires the run to stop inside the slot loop with
// a wrapped DeadlineExceeded — then reuses the handle.
func TestNetworkRunDeadlineMidConstruction(t *testing.T) {
	pts := uniformPoints(5, 220)
	nw, err := Open(pts, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()

	ctx, cancel := context.WithTimeout(bg, 2*time.Millisecond)
	defer cancel()
	if _, err := nw.Run(ctx, PipelineTVCArbitrary); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not wrap context.DeadlineExceeded", err)
	}
	if _, err := nw.Run(bg, PipelineInit); err != nil {
		t.Fatalf("run after deadline abort: %v", err)
	}
}

// TestRunMatrixConcurrent fans ≥8 specs (pipelines × seeds × phys) out over
// one Network — under -race this pins the concurrency safety of the shared
// instance, pool, memo, and lazy per-phys instance cache — and checks the
// batch results are identical to serial Run calls on a fresh handle.
func TestRunMatrixConcurrent(t *testing.T) {
	pts := uniformPoints(21, 36)
	nw, err := Open(pts, WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()

	var specs []RunSpec
	for _, p := range []Pipeline{PipelineInit, PipelineTVCArbitrary} {
		for _, seed := range []int64{1, 2, 3} {
			specs = append(specs, RunSpec{Pipeline: p, Opts: []RunOption{WithSeed(seed)}})
		}
	}
	// Two specs on a different physical parameterization: the per-phys
	// instance is built lazily under concurrency.
	for _, seed := range []int64{1, 2} {
		specs = append(specs, RunSpec{Pipeline: PipelineInit, Opts: []RunOption{
			WithSeed(seed), WithPhys(PhysParams{Alpha: 2.5}),
		}})
	}
	if len(specs) < 8 {
		t.Fatalf("want ≥8 specs, have %d", len(specs))
	}
	results, err := nw.RunMatrix(bg, specs)
	if err != nil {
		t.Fatal(err)
	}

	serial, err := Open(pts, WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	defer serial.Close()
	for i, sp := range specs {
		if results[i] == nil {
			t.Fatalf("spec %d: nil result without error", i)
		}
		want, err := serial.Run(bg, sp.Pipeline, sp.Opts...)
		if err != nil {
			t.Fatalf("spec %d serial: %v", i, err)
		}
		assertResultsIdentical(t, results[i], want)
	}
}

// TestRunMemoization: identical specs are served from the memo (same
// pointer, no re-construction); distinct specs are not.
func TestRunMemoization(t *testing.T) {
	nw, err := Open(uniformPoints(31, 24))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	a, err := nw.Run(bg, PipelineInit, WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	b, err := nw.Run(bg, PipelineInit, WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("repeated spec was re-constructed instead of memoized")
	}
	c, err := nw.Run(bg, PipelineInit, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("distinct seed returned the memoized result")
	}
}

// TestNetworkClosed: Close refuses new runs, leaves existing results
// usable, and degrades Join-derived handles gracefully (they fall back to
// per-run worker pools instead of touching the closed shared pool).
func TestNetworkClosed(t *testing.T) {
	nw, err := Open(uniformPoints(41, 20))
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.Run(bg, PipelineInit)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := nw.Join(bg, res, []Point{{X: 500, Y: 0}, {X: 503, Y: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := nw.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := nw.Run(bg, PipelineInit); !errors.Is(err, ErrNetworkClosed) {
		t.Fatalf("run on closed network: %v", err)
	}
	// Close refuses new work uniformly: ops on existing results too.
	if _, err := nw.Repair(bg, res, []int{1}); !errors.Is(err, ErrNetworkClosed) {
		t.Fatalf("repair on closed network: %v", err)
	}
	if _, err := nw.Aggregate(bg, res, make([]int64, nw.Len()), SumAgg); !errors.Is(err, ErrNetworkClosed) {
		t.Fatalf("aggregate on closed network: %v", err)
	}
	// Existing results and derived handles keep working.
	if err := res.Tree.Verify(); err != nil {
		t.Fatal(err)
	}
	if _, err := grown.Network().Repair(bg, grown, []int{grown.Tree.NumNodes - 1}); err != nil {
		t.Fatalf("repair on derived handle after parent close: %v", err)
	}
}

// TestCloseWaitsForInFlight: Close during a live batch must wait for
// in-flight runs to release the pool (no send-on-closed-channel panic);
// specs that had not started yet fail cleanly with ErrNetworkClosed.
func TestCloseWaitsForInFlight(t *testing.T) {
	nw, err := Open(uniformPoints(81, 48), WithSeed(81))
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]RunSpec, 12)
	for i := range specs {
		specs[i] = RunSpec{Pipeline: PipelineInit, Opts: []RunOption{WithSeed(int64(i))}}
	}
	done := make(chan struct{})
	var results []*Result
	var merr error
	go func() {
		defer close(done)
		results, merr = nw.RunMatrix(bg, specs)
	}()
	time.Sleep(2 * time.Millisecond)
	if err := nw.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	completed := 0
	for _, r := range results {
		if r != nil {
			completed++
		}
	}
	if completed == len(specs) && merr != nil {
		t.Fatalf("all specs completed but error reported: %v", merr)
	}
	if completed < len(specs) && !errors.Is(merr, ErrNetworkClosed) {
		t.Fatalf("incomplete batch without ErrNetworkClosed: %v", merr)
	}
}

// TestEpochDropInjection: WithDropProb on a physical epoch actually
// injects fading (a near-certain lost transfer surfaces as the epoch's
// verification error), and an explicit zero injects nothing.
func TestEpochDropInjection(t *testing.T) {
	nw, err := Open(uniformPoints(91, 24), WithSeed(91))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	res, err := nw.Run(bg, PipelineInit)
	if err != nil {
		t.Fatal(err)
	}
	values := make([]int64, nw.Len())
	for i := range values {
		values[i] = int64(i)
	}
	if _, err := nw.Aggregate(bg, res, values, SumAgg, WithDropProb(0)); err != nil {
		t.Fatalf("drop-free epoch: %v", err)
	}
	if _, err := nw.Aggregate(bg, res, values, SumAgg, WithDropProb(0.9), WithSeed(1)); err == nil {
		t.Fatal("0.9 drop probability lost no transfer — injection not wired into the epoch")
	}
}

// TestOptionValidation pins the functional-option contract: zero is a legal
// explicit value where it is physically meaningful, invalid knobs fail at
// Open/Run (not silently), and Open-scoped options are rejected at run
// scope.
func TestOptionValidation(t *testing.T) {
	pts := uniformPoints(51, 12)
	// Explicit zeros are legal.
	nw, err := Open(pts, WithSeed(0), WithDropProb(0), WithWorkers(0))
	if err != nil {
		t.Fatalf("explicit zero options: %v", err)
	}
	defer nw.Close()
	cases := []struct {
		name string
		opts []Option
	}{
		{"drop out of range", []Option{WithDropProb(1)}},
		{"negative drop", []Option{WithDropProb(-0.1)}},
		{"NaN drop", []Option{WithDropProb(math.NaN())}},
		{"broadcast zero", []Option{WithBroadcastProb(0)}},
		{"broadcast too high", []Option{WithBroadcastProb(0.9)}},
		{"NaN broadcast", []Option{WithBroadcastProb(math.NaN())}},
		{"rho zero", []Option{WithRho(0)}},
		{"negative workers", []Option{WithWorkers(-1)}},
		{"bad phys", []Option{WithPhys(PhysParams{Alpha: 1.5})}},
		{"negative cache size", []Option{WithResultCache(-1, 0)}},
	}
	for _, tc := range cases {
		if _, err := Open(pts, tc.opts...); !errors.Is(err, ErrInvalidOption) {
			t.Errorf("%s: Open returned %v, want ErrInvalidOption", tc.name, err)
		}
		if _, err := nw.Run(bg, PipelineInit, tc.opts...); !errors.Is(err, ErrInvalidOption) {
			t.Errorf("%s: Run returned %v, want ErrInvalidOption", tc.name, err)
		}
	}
	// Open-scoped options are rejected per run.
	if _, err := nw.Run(bg, PipelineInit, WithWorkers(2)); !errors.Is(err, ErrInvalidOption) {
		t.Errorf("Run accepted WithWorkers (err %v)", err)
	}
	if _, err := nw.Run(bg, PipelineInit, WithAutoNormalize(true)); !errors.Is(err, ErrInvalidOption) {
		t.Errorf("Run accepted WithAutoNormalize (err %v)", err)
	}
	// Run-scoped options work, including a per-run phys override.
	if _, err := nw.Run(bg, PipelineInit, WithSeed(0), WithPhys(PhysParams{Alpha: 4})); err != nil {
		t.Errorf("per-run phys override: %v", err)
	}
}

// TestWithPhysMergesSessionBase: a run-scoped WithPhys overriding one
// field keeps the session's Open-time customization of the others.
func TestWithPhysMergesSessionBase(t *testing.T) {
	nw, err := Open(uniformPoints(52, 14), WithSeed(52), WithPhys(PhysParams{Beta: 2}))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	res, err := nw.Run(bg, PipelineInit, WithPhys(PhysParams{Alpha: 4}))
	if err != nil {
		t.Fatal(err)
	}
	p := res.Tree.inst.Params()
	if p.Alpha != 4 || p.Beta != 2 {
		t.Fatalf("run phys = α %v β %v, want α 4 with the session's β 2", p.Alpha, p.Beta)
	}
}

// TestOpScopedPhysRejected: joins, repairs, and physical epochs operate on
// the result's fixed physics and must refuse WithPhys instead of silently
// ignoring it.
func TestOpScopedPhysRejected(t *testing.T) {
	nw, err := Open(uniformPoints(53, 16), WithSeed(53))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	res, err := nw.Run(bg, PipelineInit)
	if err != nil {
		t.Fatal(err)
	}
	phys := WithPhys(PhysParams{Alpha: 4})
	if _, err := nw.Join(bg, res, []Point{{X: 700, Y: 0}}, phys); err == nil {
		t.Error("Join accepted WithPhys")
	}
	if _, err := nw.Repair(bg, res, []int{1}, phys); err == nil {
		t.Error("Repair accepted WithPhys")
	}
	if _, err := nw.Aggregate(bg, res, make([]int64, nw.Len()), SumAgg, phys); err == nil {
		t.Error("Aggregate accepted WithPhys")
	}
}

// TestJoinNotNormalized: a join whose merged point set violates the
// normalization reports ErrNotNormalized (testable with errors.Is).
func TestJoinNotNormalized(t *testing.T) {
	nw, err := Open([]Point{{X: 0, Y: 0}, {X: 2, Y: 0}, {X: 4, Y: 0}}, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	res, err := nw.Run(bg, PipelineInit)
	if err != nil {
		t.Fatal(err)
	}
	_, err = nw.Join(bg, res, []Point{{X: 0.3, Y: 0}})
	if !errors.Is(err, ErrNotNormalized) {
		t.Fatalf("join error %v does not wrap ErrNotNormalized", err)
	}
}

// TestOpenRejectsInvalidGeometry: non-finite coordinates and extents whose
// squared distance overflows fail Open with ErrInvalidGeometry — before
// they can reach Δ, whose +Inf would otherwise surface much later as a
// retryable non-convergence.
func TestOpenRejectsInvalidGeometry(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		pts  []Point
		opts []Option
	}{
		{"NaN X", []Point{{0, 0}, {nan, 0}, {4, 0}}, nil},
		{"NaN Y", []Point{{0, 0}, {2, nan}}, nil},
		{"+Inf", []Point{{0, 0}, {inf, 0}}, nil},
		{"-Inf", []Point{{0, 0}, {0, -inf}}, nil},
		{"single NaN point", []Point{{nan, nan}}, nil},
		{"1e200 extent", []Point{{0, 0}, {1e200, 0}}, nil},
		{"1e200 corners", []Point{{-1e200, -1e200}, {1e200, 1e200}}, nil},
		{"1e200 with auto-normalize", []Point{{0, 0}, {0, 1e200}}, []Option{WithAutoNormalize(true)}},
		{"overflow after normalize", []Point{{0, 0}, {1e-200, 0}, {1e150, 0}}, []Option{WithAutoNormalize(true)}},
		{"duplicates with auto-normalize", []Point{{1, 1}, {1, 1}}, []Option{WithAutoNormalize(true)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nw, err := Open(tc.pts, tc.opts...)
			if err == nil {
				nw.Close()
				t.Fatal("Open accepted the point set")
			}
			if !errors.Is(err, ErrInvalidGeometry) {
				t.Fatalf("Open error %v does not wrap ErrInvalidGeometry", err)
			}
		})
	}
	// The widest extent that still fits is accepted.
	nw, err := Open([]Point{{0, 0}, {1e150, 0}})
	if err != nil {
		t.Fatalf("Open of a 1e150-wide deployment: %v", err)
	}
	nw.Close()
}

// TestJoinRejectsInvalidGeometry: a join bringing a non-finite coordinate,
// or growing the extent past overflow, reports ErrInvalidGeometry.
func TestJoinRejectsInvalidGeometry(t *testing.T) {
	nw, err := Open([]Point{{X: 0, Y: 0}, {X: 2, Y: 0}, {X: 4, Y: 0}}, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	res, err := nw.Run(bg, PipelineInit)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Point{{math.NaN(), 0}, {0, math.Inf(-1)}, {1e200, 0}} {
		if _, err := nw.Join(bg, res, []Point{p}); !errors.Is(err, ErrInvalidGeometry) {
			t.Errorf("join of %v: error %v does not wrap ErrInvalidGeometry", p, err)
		}
	}
}

// TestMetricsEnergyFilled: every pipeline reports the construction energy
// it spent on the channel (PR 3 satellite — Reschedule and TreeViaCapacity
// silently reported zero before).
func TestMetricsEnergyFilled(t *testing.T) {
	nw, err := Open(uniformPoints(61, 26), WithSeed(61))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	for _, p := range Pipelines() {
		res, err := nw.Run(bg, p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if res.Metrics.Energy <= 0 {
			t.Errorf("%s: Metrics.Energy = %v, want > 0", p, res.Metrics.Energy)
		}
	}
}

// assertResultsIdentical requires two results to be bit-identical: same
// tree (root, node count, every scheduled link with exact slot and power
// bits) and exactly equal metrics.
func assertResultsIdentical(t *testing.T, got, want *Result) {
	t.Helper()
	if got.Tree.Root != want.Tree.Root {
		t.Fatalf("root %d vs %d", got.Tree.Root, want.Tree.Root)
	}
	if got.Tree.NumNodes != want.Tree.NumNodes {
		t.Fatalf("nodes %d vs %d", got.Tree.NumNodes, want.Tree.NumNodes)
	}
	if len(got.Tree.Up) != len(want.Tree.Up) {
		t.Fatalf("links %d vs %d", len(got.Tree.Up), len(want.Tree.Up))
	}
	for i := range got.Tree.Up {
		if got.Tree.Up[i] != want.Tree.Up[i] {
			t.Fatalf("link %d: %+v vs %+v", i, got.Tree.Up[i], want.Tree.Up[i])
		}
	}
	if got.Metrics != want.Metrics {
		t.Fatalf("metrics differ:\n got %+v\nwant %+v", got.Metrics, want.Metrics)
	}
}
