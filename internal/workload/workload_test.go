package workload

import (
	"math"
	"math/rand"
	"testing"

	"sinrconn/internal/geom"
)

func checkMinDist(t *testing.T, pts []geom.Point, label string) {
	t.Helper()
	if d := geom.MinDist(pts); len(pts) > 1 && d < 1-1e-9 {
		t.Errorf("%s: min distance %v < 1", label, d)
	}
}

func TestUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 10, 100, 300} {
		pts := Uniform(rng, n, 30)
		if len(pts) != n {
			t.Fatalf("n=%d: got %d points", n, len(pts))
		}
		checkMinDist(t, pts, "uniform")
	}
	if Uniform(rng, 0, 10) != nil {
		t.Error("Uniform(0) != nil")
	}
}

func TestUniformGrowsTinySpan(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// span 1 cannot hold 50 points at min distance 1; generator must grow it.
	pts := Uniform(rng, 50, 1)
	if len(pts) != 50 {
		t.Fatalf("got %d points", len(pts))
	}
	checkMinDist(t, pts, "uniform tiny span")
}

func TestUniformDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := UniformDensity(rng, 100, 0.1)
	if len(pts) != 100 {
		t.Fatalf("got %d points", len(pts))
	}
	checkMinDist(t, pts, "uniform density")
	// Degenerate densities are clamped, not fatal.
	pts = UniformDensity(rng, 20, -1)
	if len(pts) != 20 {
		t.Error("negative density not clamped")
	}
	pts = UniformDensity(rng, 20, 100)
	if len(pts) != 20 {
		t.Error("huge density not clamped")
	}
}

func TestClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := Clusters(rng, 120, 4, 5, 80)
	if len(pts) != 120 {
		t.Fatalf("got %d points", len(pts))
	}
	checkMinDist(t, pts, "clusters")
	if Clusters(rng, 0, 3, 5, 80) != nil {
		t.Error("Clusters(0) != nil")
	}
	// Degenerate k handled.
	pts = Clusters(rng, 30, 0, 5, 80)
	if len(pts) != 30 {
		t.Error("k=0 not clamped")
	}
}

func TestClustersImpossibleDensityRecovers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Tiny radius for many points: generator must widen until it fits.
	pts := Clusters(rng, 100, 2, 2, 40)
	if len(pts) != 100 {
		t.Fatalf("got %d points", len(pts))
	}
	checkMinDist(t, pts, "dense clusters")
}

func TestGridPoints(t *testing.T) {
	pts := GridPoints(3, 4, 2)
	if len(pts) != 12 {
		t.Fatalf("got %d points", len(pts))
	}
	checkMinDist(t, pts, "grid")
	if d := geom.MinDist(pts); math.Abs(d-2) > 1e-12 {
		t.Errorf("grid spacing = %v", d)
	}
	pts = GridPoints(2, 2, 0.5) // clamped to 1
	if d := geom.MinDist(pts); d < 1-1e-12 {
		t.Errorf("grid spacing not clamped: %v", d)
	}
}

func TestExponentialChain(t *testing.T) {
	pts := ExponentialChain(6, 2)
	if len(pts) != 6 {
		t.Fatalf("got %d points", len(pts))
	}
	checkMinDist(t, pts, "chain")
	// Gaps are 1, 2, 4, 8, 16; Δ = 31.
	if d := geom.Delta(pts); math.Abs(d-31) > 1e-9 {
		t.Errorf("Δ = %v, want 31", d)
	}
	if ExponentialChain(0, 2) != nil {
		t.Error("ExponentialChain(0) != nil")
	}
	// base ≤ 1 replaced.
	pts = ExponentialChain(4, 0.5)
	checkMinDist(t, pts, "chain bad base")
}

func TestChainForDelta(t *testing.T) {
	for _, target := range []float64{64, 1024, 1 << 20} {
		pts := ChainForDelta(32, target)
		checkMinDist(t, pts, "chainForDelta")
		got := geom.Delta(pts)
		if got < target/2 || got > target*2 {
			t.Errorf("target Δ %v: got %v", target, got)
		}
	}
	// Targets below the n-1 floor are clamped, not fatal.
	pts := ChainForDelta(8, 1)
	checkMinDist(t, pts, "chainForDelta clamp")
	if got := geom.Delta(pts); got < 7-1e-9 || got > 14 {
		t.Errorf("clamped Δ = %v, want ≈ 7", got)
	}
}

func TestStandardSuite(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, spec := range Standard() {
		pts := spec.Gen(rng, 48)
		if len(pts) != 48 {
			t.Errorf("%s: got %d points", spec.Name, len(pts))
		}
		checkMinDist(t, pts, spec.Name)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	a := Uniform(rand.New(rand.NewSource(11)), 40, 30)
	b := Uniform(rand.New(rand.NewSource(11)), 40, 30)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Uniform not deterministic for fixed seed")
		}
	}
}

// TestJitteredGrid pins the O(n) bench generator's contract: exactly n
// points, minimum pairwise distance ≥ 1, and jitter clamped so the
// normalization survives aggressive parameters.
func TestJitteredGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, tc := range []struct {
		n       int
		spacing float64
		jitter  float64
	}{
		{1, 1, 0}, {17, 2, 0.4}, {100, 3, 0.9}, {257, 1, 5}, {1024, 4, 1.5},
	} {
		pts := JitteredGrid(rng, tc.n, tc.spacing, tc.jitter)
		if len(pts) != tc.n {
			t.Fatalf("JitteredGrid(%d, %v, %v): got %d points", tc.n, tc.spacing, tc.jitter, len(pts))
		}
		if tc.n > 1 {
			if md := geom.MinDist(pts); md < 1-1e-9 {
				t.Fatalf("JitteredGrid(%d, %v, %v): min distance %v < 1", tc.n, tc.spacing, tc.jitter, md)
			}
		}
	}
}
