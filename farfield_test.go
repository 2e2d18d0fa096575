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

	"sinrconn/internal/workload"
)

// TestFarFieldExactnessZero is the ε = 0 drift gate: a Network opened with
// WithMaxRelError(0) must produce bit-identical results to one without the
// option, for every pipeline across the scenario matrix (two generators
// under -short).
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
				zero, err := Open(pts, WithSeed(seed), WithMaxRelError(0))
				if err != nil {
					t.Fatal(err)
				}
				defer zero.Close()
				b, berr := zero.Run(bg, p)
				if (aerr == nil) != (berr == nil) {
					t.Fatalf("error divergence: plain %v vs ε=0 %v", aerr, berr)
				}
				if aerr == nil {
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
// explicitly overrides it, and exact-built trees stay exact. The 512-node
// box at ε = 2.5 sits past the NearDominated guard (TestFarModeSelection),
// so the ε-built tree and its join both run under a plan.
func TestFarFieldOpInheritance(t *testing.T) {
	pts := uniformPoints(61, 512)
	nw, err := Open(pts, WithSeed(61)) // exact session base
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	far, err := nw.Run(bg, PipelineInit, WithMaxRelError(2.5))
	if err != nil {
		t.Fatal(err)
	}
	if far.Tree.ff == nil {
		t.Fatal("run-scoped ε did not record a far-field plan on the tree")
	}
	grown, err := nw.Join(bg, far, []Point{{X: 400, Y: 400}, {X: 403, Y: 401}})
	if err != nil {
		t.Fatal(err)
	}
	if grown.Tree.ff == nil || grown.Tree.ff.MaxRelError() != 2.5 {
		t.Fatalf("join did not inherit the tree's far-field mode: %+v", grown.Tree.ff)
	}
	exactGrown, err := nw.Join(bg, far, []Point{{X: 420, Y: 420}, {X: 423, Y: 421}}, WithMaxRelError(0))
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
	grownExact, err := nw.Join(bg, exact, []Point{{X: 440, Y: 440}, {X: 443, Y: 441}})
	if err != nil {
		t.Fatal(err)
	}
	if grownExact.Tree.ff != nil {
		t.Fatal("join of an exact-built tree picked up a far-field plan")
	}
}

// TestFarModeSelection pins which plan an ε resolves to on the recorded
// result, including the degenerate-geometry fallback:
//
//   - On a box large enough for its ε, the run records a quadtree plan.
//   - In the near-dominated regime — the quadtree's leaf opening horizon
//     spanning the box — it must run the exact path rather than a plan
//     doing strictly more work than exact.
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
	if auto.Tree.ff == nil {
		t.Fatal("ε=2.5 run on a large box recorded no plan")
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
		t.Fatal("near-dominated run recorded a plan, want exact fallback")
	}
	in, err := snw.instanceFor(snw.base.phys)
	if err != nil {
		t.Fatal(err)
	}
	q, err := in.QuadTree(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !q.NearDominated() {
		t.Fatal("test geometry no longer quadtree-near-dominated — shrink it")
	}
}

// TestFarModeOpScoping pins option scoping on operations over an existing
// result: the session's ε is not an operation option, so a plain Join
// inherits the tree's channel mode — far on an ε-built tree, exact on an
// exact-built one, whatever ε the Network was opened with — and only an
// explicit WithMaxRelError on the operation overrides it.
func TestFarModeOpScoping(t *testing.T) {
	pts := uniformPoints(63, 512)
	nw, err := Open(pts, WithSeed(63), WithMaxRelError(2.5))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	res, err := nw.Run(bg, PipelineInit)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tree.ff == nil {
		t.Fatal("session-scoped ε recorded no plan")
	}
	grown, err := nw.Join(bg, res, []Point{{X: 400, Y: 400}, {X: 403, Y: 401}})
	if err != nil {
		t.Fatal(err)
	}
	if grown.Tree.ff == nil || grown.Tree.ff.MaxRelError() != 2.5 {
		t.Fatalf("plain join on an ε-built tree lost the tree's channel mode: %v", grown.Tree.ff)
	}
	exact, err := nw.Run(bg, PipelineInit, WithMaxRelError(0))
	if err != nil {
		t.Fatal(err)
	}
	if exact.Tree.ff != nil {
		t.Fatal("run-scoped ε=0 recorded a plan")
	}
	stays, err := nw.Join(bg, exact, []Point{{X: 420, Y: 420}, {X: 423, Y: 421}})
	if err != nil {
		t.Fatal(err)
	}
	if stays.Tree.ff != nil {
		t.Fatal("the session's ε leaked into a plain join of an exact-built tree")
	}
	switched, err := nw.Join(bg, exact, []Point{{X: 440, Y: 440}, {X: 443, Y: 441}}, WithMaxRelError(2.5))
	if err != nil {
		t.Fatal(err)
	}
	if switched.Tree.ff == nil || switched.Tree.ff.MaxRelError() != 2.5 {
		t.Fatalf("explicit WithMaxRelError on the join did not win: %v", switched.Tree.ff)
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
