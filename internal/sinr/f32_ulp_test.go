package sinr

// White-box measurement behind the f32 certificate: the mirror is built
// by accumulating in float64 and rounding each aggregate ONCE, so every
// node's f32 error is at most one half-ulp — u = 2⁻²⁴ relative — while
// the certificate inflation budgeted for it (certErr32 − certErr) covers
// u plus the centroid-shift term. Measuring the actual per-node error
// here is what licenses calling the inflation "allowance, not cliff" in
// DESIGN.md §12.

import (
	"math"
	"math/rand"
	"testing"

	"sinrconn/internal/workload"
)

func TestFloat32AggregateUlp(t *testing.T) {
	const u = 1.0 / (1 << 24)
	const n = 700
	rng := rand.New(rand.NewSource(271))
	pts := workload.GaussianClusters(rng, n, 20, 3, 70)
	in, err := NewInstance(pts, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{0.1, 0.5} {
		q, err := in.QuadTree(eps)
		if err != nil {
			t.Fatal(err)
		}
		sc := q.newScratch(true)
		txs := driftTxSet(rng, n, n/2)
		sc.Accumulate(txs)
		check := func(g int, what string, exact float64, rounded float32) {
			t.Helper()
			if gotErr := math.Abs(float64(rounded) - exact); gotErr > u*math.Abs(exact)*(1+1e-15) {
				t.Fatalf("eps %v node %d: %s f32 error %v exceeds one rounding of %v (u=%v)",
					eps, g, what, gotErr, exact, u)
			}
		}
		occupied := 0
		for g := 0; g < q.nodes; g++ {
			if sc.stamp[g] != sc.epoch {
				continue
			}
			occupied++
			check(g, "mass", sc.node[g].mass, sc.mass32[g])
			check(g, "cenX", sc.node[g].cenX, sc.cenX32[g])
			check(g, "cenY", sc.node[g].cenY, sc.cenY32[g])
		}
		if occupied < 100 {
			t.Fatalf("eps %v: only %d occupied nodes for %d senders — workload too degenerate to measure", eps, occupied, n/2)
		}
	}
}
