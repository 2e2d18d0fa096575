package sinrconn

import (
	"errors"
	"testing"

	"sinrconn/internal/workload"
)

// uniformPoints generates n facade points with min distance ≥ 1. The
// actual generation is the shared workload.UniformSeeded helper (used by
// the soak, dynamic, aggregate, and scenario-matrix suites alike); this
// wrapper only converts to the facade Point type.
func uniformPoints(seed int64, n int) []Point {
	g := workload.UniformSeeded(seed, n)
	pts := make([]Point, len(g))
	for i, p := range g {
		pts[i] = Point{X: p.X, Y: p.Y}
	}
	return pts
}

// build opens a handle over pts with opts (closed when the test ends) and
// runs pipeline p on it.
func build(t testing.TB, pts []Point, p Pipeline, opts ...Option) *Result {
	t.Helper()
	nw, err := Open(pts, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nw.Close() })
	res, err := nw.Run(bg, p)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestBuildInitialBiTree(t *testing.T) {
	pts := uniformPoints(1, 48)
	res := build(t, pts, PipelineInit, WithSeed(7))
	if res.Tree.NumNodes != 48 || len(res.Tree.Up) != 47 {
		t.Fatalf("tree shape: %d nodes, %d links", res.Tree.NumNodes, len(res.Tree.Up))
	}
	if err := res.Tree.Verify(); err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.SlotsUsed <= 0 || m.ScheduleLength <= 0 || m.Rounds <= 0 {
		t.Errorf("metrics: %+v", m)
	}
	if m.AggregationLatency <= 0 || m.BroadcastLatency <= 0 {
		t.Errorf("latencies not filled: %+v", m)
	}
	if m.Delta <= 1 || m.Upsilon < 1 {
		t.Errorf("instance metrics: %+v", m)
	}
}

func TestRescheduleMeanPower(t *testing.T) {
	pts := uniformPoints(2, 40)
	res := build(t, pts, PipelineRescheduleMean, WithSeed(3))
	if res.Metrics.ScheduleLength <= 0 {
		t.Error("no schedule length")
	}
	if len(res.Tree.Up) != 39 {
		t.Errorf("links = %d", len(res.Tree.Up))
	}
	// Rescheduled trees keep structure but may violate ordering; Verify is
	// intentionally NOT called here. Parent map must still be total.
	if got := len(res.Tree.Parent()); got != 39 {
		t.Errorf("parents = %d", got)
	}
}

func TestBuildBiTreeMeanPower(t *testing.T) {
	pts := uniformPoints(3, 40)
	res := build(t, pts, PipelineTVCMean, WithSeed(5))
	if err := res.Tree.Verify(); err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Iterations <= 0 {
		t.Error("iterations not recorded")
	}
}

func TestBuildBiTreeArbitraryPower(t *testing.T) {
	pts := uniformPoints(4, 40)
	res := build(t, pts, PipelineTVCArbitrary, WithSeed(5))
	if err := res.Tree.Verify(); err != nil {
		t.Fatal(err)
	}
	// Theorem 4 shape: schedule length stays far below n.
	if res.Metrics.ScheduleLength >= len(pts) {
		t.Errorf("schedule length %d not sublinear", res.Metrics.ScheduleLength)
	}
}

func TestTreeAccessors(t *testing.T) {
	pts := uniformPoints(5, 24)
	res := build(t, pts, PipelineInit, WithSeed(9))
	tr := res.Tree
	if tr.MaxDegree() < 1 {
		t.Error("MaxDegree < 1")
	}
	if tr.Depth() < 1 {
		t.Error("Depth < 1")
	}
	par := tr.Parent()
	if len(par) != 23 {
		t.Errorf("Parent size = %d", len(par))
	}
	if _, hasRoot := par[tr.Root]; hasRoot {
		t.Error("root has a parent")
	}
	lat, err := tr.PairLatency(0, tr.Root)
	if err != nil {
		t.Fatal(err)
	}
	if lat < 0 {
		t.Errorf("PairLatency = %d", lat)
	}
}

func TestInputValidation(t *testing.T) {
	if _, err := Open(nil); err == nil {
		t.Error("empty input accepted")
	}
	// Min distance below 1 without AutoNormalize.
	tooClose := []Point{{0, 0}, {0.5, 0}, {10, 0}}
	if _, err := Open(tooClose); !errors.Is(err, ErrNotNormalized) {
		t.Errorf("err = %v, want ErrNotNormalized", err)
	}
	// With AutoNormalize it succeeds.
	res := build(t, tooClose, PipelineInit, WithAutoNormalize(true), WithSeed(1))
	if err := res.Tree.Verify(); err != nil {
		t.Fatal(err)
	}
	// Duplicate points can never be normalized.
	if _, err := Open([]Point{{1, 1}, {1, 1}}, WithAutoNormalize(true)); err == nil {
		t.Error("duplicate points accepted")
	}
}

func TestSingleNode(t *testing.T) {
	res := build(t, []Point{{3, 4}}, PipelineInit)
	if res.Tree.Root != 0 || len(res.Tree.Up) != 0 {
		t.Errorf("single-node tree: %+v", res.Tree)
	}
}

func TestDeterminism(t *testing.T) {
	pts := uniformPoints(6, 32)
	a := build(t, pts, PipelineTVCArbitrary, WithSeed(11))
	b := build(t, pts, PipelineTVCArbitrary, WithSeed(11))
	if a.Tree.Root != b.Tree.Root || a.Metrics != b.Metrics {
		t.Fatal("pipeline not deterministic")
	}
}

func TestCustomParams(t *testing.T) {
	pts := uniformPoints(7, 24)
	res := build(t, pts, PipelineInit, WithSeed(1), WithPhys(PhysParams{Alpha: 4, Beta: 2, Noise: 0.5}))
	if err := res.Tree.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultPhysParams(t *testing.T) {
	p := DefaultPhysParams()
	if p.Alpha <= 2 || p.Beta <= 0 || p.Noise <= 0 {
		t.Errorf("defaults: %+v", p)
	}
}

func TestDropInjectionPipeline(t *testing.T) {
	pts := uniformPoints(8, 24)
	res := build(t, pts, PipelineInit, WithSeed(2), WithDropProb(0.25))
	if err := res.Tree.Verify(); err != nil {
		t.Fatal(err)
	}
}
