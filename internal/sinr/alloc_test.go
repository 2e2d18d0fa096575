package sinr_test

import (
	"testing"

	"sinrconn/internal/geom"
	"sinrconn/internal/sinr"
)

// allocFixture builds a well-spread grid instance and a small concurrent
// link set for the steady-state allocation gates below.
func allocFixture(t *testing.T) (*sinr.Instance, []sinr.Link, []float64) {
	t.Helper()
	pts := make([]geom.Point, 0, 64)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			pts = append(pts, geom.Point{X: float64(i) * 16, Y: float64(j) * 16})
		}
	}
	p := sinr.DefaultParams()
	in, err := sinr.NewInstance(pts, p)
	if err != nil {
		t.Fatal(err)
	}
	links := []sinr.Link{{From: 0, To: 1}, {From: 26, To: 27}, {From: 52, To: 53}}
	powers := make([]float64, len(links))
	for i, l := range links {
		powers[i] = p.SafePower(in.Dist(l.From, l.To)) * 4
	}
	return in, links, powers
}

// TestSINRFeasibleBufZeroAlloc pins the //sinr:hotpath contract of
// Instance.SINRFeasibleBuf: with a caller scratch of sufficient capacity,
// the steady state allocates nothing. The warm-up call absorbs the lazy
// gain-table build and any first-use scratch growth.
func TestSINRFeasibleBufZeroAlloc(t *testing.T) {
	in, links, powers := allocFixture(t)
	scratch := make([]sinr.Tx, len(links))
	var callErr error
	if _, callErr = in.SINRFeasibleBuf(links, powers, scratch); callErr != nil {
		t.Fatal(callErr)
	}
	allocs := testing.AllocsPerRun(100, func() {
		_, callErr = in.SINRFeasibleBuf(links, powers, scratch)
	})
	if callErr != nil {
		t.Fatal(callErr)
	}
	if allocs != 0 {
		t.Fatalf("SINRFeasibleBuf allocates %.1f times/op with warm scratch, want 0", allocs)
	}
}

// TestSINRFeasibleFarBufZeroAlloc pins the //sinr:hotpath contract of the
// far-field feasibility path — Instance.SINRFeasibleFarBuf and, through it,
// the scratch's Accumulate and LinkSINR.
func TestSINRFeasibleFarBufZeroAlloc(t *testing.T) {
	in, links, powers := allocFixture(t)
	q, err := in.QuadTree(0.05)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("quadtree", func(t *testing.T) {
		scratch := make([]sinr.Tx, len(links))
		sc := q.NewScratch()
		var callErr error
		if _, callErr = in.SINRFeasibleFarBuf(links, powers, q, scratch, sc); callErr != nil {
			t.Fatal(callErr)
		}
		allocs := testing.AllocsPerRun(100, func() {
			_, callErr = in.SINRFeasibleFarBuf(links, powers, q, scratch, sc)
		})
		if callErr != nil {
			t.Fatal(callErr)
		}
		if allocs != 0 {
			t.Fatalf("SINRFeasibleFarBuf allocates %.1f times/op with warm scratch, want 0", allocs)
		}
	})
}
