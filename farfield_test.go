package sinrconn

// Session-level far-field suite: the ε = 0 exactness contract (the drift
// gate pinning WithMaxRelError(0) to the exact path), approximate
// pipeline runs across the scenario matrix, option validation, and the
// far-field epoch/join paths.

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"sinrconn/internal/sinr"
	"sinrconn/internal/workload"
)

// TestFarFieldExactnessZero is the ε = 0 drift gate: a Network opened with
// WithMaxRelError(0) must produce bit-identical results to one without the
// option — whatever far mode WithFarMode names, since ε = 0 is always the
// exact path — for every pipeline across the scenario matrix (two
// generators under -short).
func TestFarFieldExactnessZero(t *testing.T) {
	gens := workload.Matrix()
	if testing.Short() {
		gens = gens[:2]
	}
	n := 24
	for gi, gen := range gens {
		for pi, p := range Pipelines() {
			gen, p := gen, p
			seed := int64(7001 + 100*gi + 10*pi)
			t.Run(gen.Name+"/"+p.String(), func(t *testing.T) {
				pts := facadePoints(gen, seed, n)
				plain, err := Open(pts, WithSeed(seed))
				if err != nil {
					t.Fatal(err)
				}
				defer plain.Close()
				a, aerr := plain.Run(bg, p)
				modes := []FarMode{FarAuto}
				if gi == 0 {
					// One generator sweeps every mode: ε = 0 must select
					// the exact path regardless of the named mode.
					modes = []FarMode{FarAuto, FarQuadtree}
				}
				for _, mode := range modes {
					zero, err := Open(pts, WithSeed(seed), WithMaxRelError(0), WithFarMode(mode))
					if err != nil {
						t.Fatal(err)
					}
					defer zero.Close()
					b, berr := zero.Run(bg, p)
					if (aerr == nil) != (berr == nil) {
						t.Fatalf("mode %v: error divergence: plain %v vs ε=0 %v", mode, aerr, berr)
					}
					if aerr != nil {
						continue
					}
					assertResultsIdentical(t, b, a)
				}
			})
		}
	}
}

// TestFarFieldPipelines runs every pipeline under an approximate channel
// (ε = 0.5) across a slice of the matrix: the tree must span, pass the
// structural validators, and pass per-slot feasibility under the plan's
// guard band (Result.Tree.Verify applies it automatically).
func TestFarFieldPipelines(t *testing.T) {
	gens := workload.Matrix()[:3]
	n := 32
	for gi, gen := range gens {
		for pi, p := range Pipelines() {
			gen, p := gen, p
			seed := int64(8001 + 100*gi + 10*pi)
			t.Run(gen.Name+"/"+p.String(), func(t *testing.T) {
				pts := facadePoints(gen, seed, n)
				nw, err := Open(pts, WithSeed(seed), WithMaxRelError(0.5))
				if err != nil {
					t.Fatal(err)
				}
				defer nw.Close()
				res, err := nw.Run(bg, p)
				if err != nil {
					t.Fatalf("far-field %v run: %v", p, err)
				}
				if res.Tree.NumNodes != n {
					t.Fatalf("far-field tree spans %d/%d nodes", res.Tree.NumNodes, n)
				}
				if p.Ordered() {
					if err := res.Tree.Verify(); err != nil {
						t.Fatalf("far-field tree failed verification: %v", err)
					}
				}
			})
		}
	}
}

// TestFarFieldMemoKeying asserts results are memoized per ε: repeats hit
// the memo, distinct ε (including ε = 0) are distinct entries.
func TestFarFieldMemoKeying(t *testing.T) {
	pts := uniformPoints(31, 28)
	nw, err := Open(pts, WithSeed(31))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	exact, err := nw.Run(bg, PipelineInit)
	if err != nil {
		t.Fatal(err)
	}
	far, err := nw.Run(bg, PipelineInit, WithMaxRelError(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if far == exact {
		t.Fatal("ε=0.5 run served from the exact memo entry")
	}
	again, err := nw.Run(bg, PipelineInit, WithMaxRelError(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if again != far {
		t.Fatal("repeated ε=0.5 run missed the memo")
	}
	zero, err := nw.Run(bg, PipelineInit, WithMaxRelError(0))
	if err != nil {
		t.Fatal(err)
	}
	if zero != exact {
		t.Fatal("explicit ε=0 run missed the exact memo entry")
	}
}

// TestFarFieldOpInheritance pins the channel-mode inheritance of
// operations on an existing result: a tree built with a run-scoped ε is
// joined/repaired/re-driven under that same mode unless the operation
// explicitly overrides it, and exact-built trees stay exact.
func TestFarFieldOpInheritance(t *testing.T) {
	pts := uniformPoints(53, 26)
	nw, err := Open(pts, WithSeed(53)) // exact session base
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	// Forced quadtree: the 26-node box sits inside FarAuto's degeneracy
	// guard, and inheritance must thread the *forced* engine through the
	// join as well.
	far, err := nw.Run(bg, PipelineInit, WithMaxRelError(0.5), WithFarMode(FarQuadtree))
	if err != nil {
		t.Fatal(err)
	}
	if far.Tree.ff == nil {
		t.Fatal("run-scoped ε did not record a far-field plan on the tree")
	}
	grown, err := nw.Join(bg, far, []Point{{X: 300, Y: 300}, {X: 303, Y: 301}})
	if err != nil {
		t.Fatal(err)
	}
	if grown.Tree.ff == nil || grown.Tree.ff.MaxRelError() != 0.5 {
		t.Fatalf("join did not inherit the tree's far-field mode: %+v", grown.Tree.ff)
	}
	exactGrown, err := nw.Join(bg, far, []Point{{X: 320, Y: 320}, {X: 323, Y: 321}}, WithMaxRelError(0))
	if err != nil {
		t.Fatal(err)
	}
	if exactGrown.Tree.ff != nil {
		t.Fatal("explicit ε=0 override did not switch the join to exact mode")
	}
	exact, err := nw.Run(bg, PipelineInit)
	if err != nil {
		t.Fatal(err)
	}
	grownExact, err := nw.Join(bg, exact, []Point{{X: 340, Y: 340}, {X: 343, Y: 341}})
	if err != nil {
		t.Fatal(err)
	}
	if grownExact.Tree.ff != nil {
		t.Fatal("join of an exact-built tree picked up a far-field plan")
	}
}

// TestFarModeSelection pins which plan each FarMode resolves to on the
// recorded result, including the degenerate-geometry fallback:
//
//   - On a box large enough for its ε, FarAuto records a quadtree plan
//     with adaptive per-slot selection, FarQuadtree the same plan forced.
//   - In the near-dominated regime — the quadtree's leaf opening horizon
//     spanning the box — FarAuto must run the exact path rather than a
//     plan doing strictly more work than exact; a forced FarQuadtree keeps
//     its plan.
func TestFarModeSelection(t *testing.T) {
	// 512 uniform nodes at ε=2.5: past both degeneracy guards (the
	// quadtree horizon ratio (√2/θ)/2^L needs depth 2^L > 4√2/θ ≈ 11,
	// i.e. L ≥ 4 ⇔ n ≥ 512 — span-independent).
	pts := uniformPoints(61, 512)
	nw, err := Open(pts, WithSeed(61), WithMaxRelError(2.5))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	auto, err := nw.Run(bg, PipelineInit)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := auto.Tree.ff.(*sinr.QuadTree); !ok || !auto.Tree.ffAdaptive {
		t.Fatalf("FarAuto recorded (%T, adaptive=%v), want (*sinr.QuadTree, true)",
			auto.Tree.ff, auto.Tree.ffAdaptive)
	}
	quad, err := nw.Run(bg, PipelineInit, WithFarMode(FarQuadtree))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := quad.Tree.ff.(*sinr.QuadTree); !ok || quad.Tree.ffAdaptive {
		t.Fatalf("FarQuadtree recorded (%T, adaptive=%v), want (*sinr.QuadTree, false)",
			quad.Tree.ff, quad.Tree.ffAdaptive)
	}
	if auto == quad {
		t.Fatal("distinct far modes shared one memo entry")
	}

	// 40 nodes at ε=0.5: the quadtree's degenerate regime.
	small := uniformPoints(62, 40)
	snw, err := Open(small, WithSeed(62), WithMaxRelError(0.5))
	if err != nil {
		t.Fatal(err)
	}
	defer snw.Close()
	sauto, err := snw.Run(bg, PipelineInit)
	if err != nil {
		t.Fatal(err)
	}
	if sauto.Tree.ff != nil {
		t.Fatalf("near-dominated FarAuto run recorded plan %T, want exact fallback", sauto.Tree.ff)
	}
	forced, err := snw.Run(bg, PipelineInit, WithFarMode(FarQuadtree))
	if err != nil {
		t.Fatal(err)
	}
	fq, ok := forced.Tree.ff.(*sinr.QuadTree)
	if !ok {
		t.Fatalf("forced FarQuadtree recorded %T, want *sinr.QuadTree", forced.Tree.ff)
	}
	if !fq.NearDominated() {
		t.Fatal("test geometry no longer quadtree-near-dominated — shrink it")
	}
}

// TestFarModeOpScoping pins two option-scoping contracts on operations
// over an existing result:
//
//  1. An Open-scoped WithFarMode must not leak into operation scope: a
//     plain Join on an ε-built tree inherits the tree's engine and ε even
//     when the Network was opened with an explicit (redundant) far mode.
//  2. A run-scoped WithFarMode alone switches the engine but keeps the
//     tree's ε — it is a mode, not an error bound, and must not silently
//     flip the operation to exact physics.
func TestFarModeOpScoping(t *testing.T) {
	pts := uniformPoints(63, 512)
	nw, err := Open(pts, WithSeed(63), WithFarMode(FarAuto)) // explicit mode, no ε
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	res, err := nw.Run(bg, PipelineInit, WithMaxRelError(2.5))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Tree.ff.(*sinr.QuadTree); !ok {
		t.Fatalf("run-scoped ε recorded %T, want *sinr.QuadTree", res.Tree.ff)
	}
	grown, err := nw.Join(bg, res, []Point{{X: 400, Y: 400}, {X: 403, Y: 401}})
	if err != nil {
		t.Fatal(err)
	}
	if grown.Tree.ff == nil || grown.Tree.ff.MaxRelError() != 2.5 {
		t.Fatalf("plain join under an Open-scoped far mode lost the tree's channel mode: %v", grown.Tree.ff)
	}
	if !grown.Tree.ffAdaptive {
		t.Fatal("plain join did not inherit the tree's adaptivity")
	}
	switched, err := nw.Join(bg, res, []Point{{X: 420, Y: 420}, {X: 423, Y: 421}}, WithFarMode(FarQuadtree))
	if err != nil {
		t.Fatal(err)
	}
	if switched.Tree.ff == nil || switched.Tree.ff.MaxRelError() != 2.5 {
		t.Fatalf("mode-only override dropped the tree's ε: %v", switched.Tree.ff)
	}
	if switched.Tree.ffAdaptive {
		t.Fatal("forced FarQuadtree join kept adaptive selection, want forced always-far")
	}
}

// TestWithMaxRelErrorValidation pins option validation: negative, NaN, and
// +Inf bounds fail at the call site.
func TestWithMaxRelErrorValidation(t *testing.T) {
	pts := uniformPoints(5, 8)
	for _, eps := range []float64{-0.1, math.Inf(1), math.NaN()} {
		if _, err := Open(pts, WithMaxRelError(eps)); err == nil {
			t.Fatalf("Open accepted WithMaxRelError(%v)", eps)
		}
	}
	nw, err := Open(pts)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	if _, err := nw.Run(bg, PipelineInit, WithMaxRelError(-1)); err == nil {
		t.Fatal("Run accepted WithMaxRelError(-1)")
	}
	if _, err := nw.Run(bg, PipelineInit, WithFarMode(FarMode(99))); err == nil {
		t.Fatal("Run accepted WithFarMode(99)")
	}
}

// TestFarFieldEpochAndJoin exercises the remaining far-field surfaces: a
// physical aggregation epoch under an approximate channel delivers the
// exact aggregate (the schedule's SafePower margins keep decisions away
// from the β cut), and a far-field join grows the tree with the plan
// extended rather than rebuilt.
func TestFarFieldEpochAndJoin(t *testing.T) {
	pts := uniformPoints(47, 30)
	nw, err := Open(pts, WithSeed(47), WithMaxRelError(0.5))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	res, err := nw.Run(bg, PipelineTVCArbitrary)
	if err != nil {
		t.Fatal(err)
	}
	values := make([]int64, len(pts))
	var want int64
	for i := range values {
		values[i] = int64(i + 1)
		want += values[i]
	}
	out, err := nw.Aggregate(bg, res, values, SumAgg)
	if err != nil {
		t.Fatalf("far-field aggregation epoch: %v", err)
	}
	if out.Value != want {
		t.Fatalf("far-field aggregate %d, want %d", out.Value, want)
	}
	grown, err := nw.Join(bg, res, []Point{{X: 200, Y: 200}, {X: 203, Y: 201}})
	if err != nil {
		t.Fatalf("far-field join: %v", err)
	}
	if grown.Tree.NumNodes != len(pts)+2 {
		t.Fatalf("far-field join spans %d nodes, want %d", grown.Tree.NumNodes, len(pts)+2)
	}
	if err := grown.Tree.Verify(); err != nil {
		t.Fatalf("far-field joined tree failed verification: %v", err)
	}
}

// TestFarPrecisionOption pins the public WithFarPrecision surface:
//
//   - A Far32 run under the quadtree engine records the float32 mirror on
//     the result tree and still spans the instance.
//   - Precision is part of the memo key: Far32 and Far64 runs at the same
//     ε are distinct entries, a repeated Far32 run hits the memo, and an
//     explicit Far64 names the default entry.
//   - ε = 0 ignores precision entirely: the run is the exact path and
//     shares the exact memo entry.
//   - Operations inherit the precision the tree was built under: a plain
//     Join on a Far32-built tree grows a Far32 tree.
func TestFarPrecisionOption(t *testing.T) {
	// 512 uniform nodes at ε=2.5: past the quadtree degeneracy guard, so
	// FarAuto keeps the plan (geometry rationale in TestFarModeSelection).
	pts := uniformPoints(67, 512)
	nw, err := Open(pts, WithSeed(67), WithMaxRelError(2.5))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	f64, err := nw.Run(bg, PipelineInit)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f64.Tree.ff.(*sinr.QuadTree); !ok {
		t.Fatalf("default-precision run recorded %T, want *sinr.QuadTree", f64.Tree.ff)
	}
	f32, err := nw.Run(bg, PipelineInit, WithFarPrecision(Far32))
	if err != nil {
		t.Fatal(err)
	}
	mirror, ok := f32.Tree.ff.(*sinr.QuadTreeF32)
	if !ok {
		t.Fatalf("Far32 run recorded %T, want *sinr.QuadTreeF32", f32.Tree.ff)
	}
	if mirror.CertifiedMaxRelError() > mirror.MaxRelError() {
		t.Fatalf("f32 certificate %v exceeds its effective bound %v",
			mirror.CertifiedMaxRelError(), mirror.MaxRelError())
	}
	if f32.Tree.NumNodes != len(pts) {
		t.Fatalf("Far32 tree spans %d/%d nodes", f32.Tree.NumNodes, len(pts))
	}
	if f32 == f64 {
		t.Fatal("Far32 run served from the Far64 memo entry")
	}
	again, err := nw.Run(bg, PipelineInit, WithFarPrecision(Far32))
	if err != nil {
		t.Fatal(err)
	}
	if again != f32 {
		t.Fatal("repeated Far32 run missed the memo")
	}
	explicit, err := nw.Run(bg, PipelineInit, WithFarPrecision(Far64))
	if err != nil {
		t.Fatal(err)
	}
	if explicit != f64 {
		t.Fatal("explicit Far64 run missed the default-precision memo entry")
	}

	if _, err := nw.Run(bg, PipelineInit, WithFarPrecision(Far32+1)); err == nil {
		t.Fatal("Run accepted an unknown FarPrecision")
	}

	// ε = 0 is the exact path whatever the precision: same memo entry as
	// a plain exact run, bit-identical results.
	exact, err := nw.Run(bg, PipelineInit, WithMaxRelError(0))
	if err != nil {
		t.Fatal(err)
	}
	zero32, err := nw.Run(bg, PipelineInit, WithMaxRelError(0), WithFarPrecision(Far32))
	if err != nil {
		t.Fatal(err)
	}
	if zero32 != exact {
		t.Fatal("ε=0 with Far32 split off from the exact memo entry")
	}
	assertResultsIdentical(t, zero32, exact)

	// Plain operations on a Far32-built tree inherit the mirror.
	grown, err := nw.Join(bg, f32, []Point{{X: 500, Y: 500}, {X: 503, Y: 501}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := grown.Tree.ff.(*sinr.QuadTreeF32); !ok {
		t.Fatalf("join of a Far32-built tree recorded %T, want *sinr.QuadTreeF32", grown.Tree.ff)
	}
	if grown.Tree.ff.MaxRelError() < 2.5 {
		t.Fatalf("inherited f32 plan narrowed the tree's ε: %v", grown.Tree.ff.MaxRelError())
	}
}

// TestOpenFarLarge is the scale smoke for session set-up at the far-field
// row's largest size: Open validates a 262144-node deployment (the
// minimum-distance check) and a Run on a canceled context gets past the Init
// ladder's maximum-distance scan to its first context check. Both were
// all-pairs scans costing minutes at this n; the time is logged, not gated.
func TestOpenFarLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("262144-node set-up; skipped under -short")
	}
	const n = 1 << 18
	g := workload.JitteredGrid(rand.New(rand.NewSource(1)), n, 2.6, 0.8)
	pts := make([]Point, len(g))
	for i, p := range g {
		pts[i] = Point{X: p.X, Y: p.Y}
	}
	t0 := time.Now()
	nw, err := Open(pts, WithMaxRelError(1.0))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	t1 := time.Now()
	canceled, cancel := context.WithCancel(bg)
	cancel()
	if _, err := nw.Run(canceled, PipelineInit); !errors.Is(err, context.Canceled) {
		t.Fatalf("run on a canceled context returned %v, want context.Canceled", err)
	}
	t.Logf("n=%d: Open %v, canceled Run %v", n, t1.Sub(t0), time.Since(t1))
}
