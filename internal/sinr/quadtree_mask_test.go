package sinr

// The child-mask invariant: the walks descend only into the children
// their parent's mask names, so Accumulate must set exactly the bits of
// the children that hold mass this epoch.

import (
	"fmt"
	"math/rand"
	"testing"

	"sinrconn/internal/workload"
)

// assertChildMasks checks the child-mask invariant the walks filter by:
// bit c of an occupied inner node's mask is set iff child c is occupied
// this epoch with nonzero mass.
func assertChildMasks(t *testing.T, label string, sc *QuadScratch) {
	t.Helper()
	q := sc.q
	for lvl := 0; lvl < q.levels; lvl++ {
		off, coff := q.levelOff[lvl], q.levelOff[lvl+1]
		for tl := int32(0); tl < int32(1)<<(2*lvl); tl++ {
			if sc.stamp[off+tl] != sc.epoch {
				continue
			}
			for c := int32(0); c < 4; c++ {
				cg := coff + (tl<<2 | c)
				want := sc.stamp[cg] == sc.epoch && sc.node[cg].mass != 0
				if got := sc.kids[off+tl]>>uint(c)&1 != 0; got != want {
					t.Fatalf("%s: level %d node %d child %d: mask bit %v, occupied with mass %v", label, lvl, tl, c, got, want)
				}
			}
		}
	}
}

// TestChildMasks pins the child-mask invariant after accumulation, over
// sender sets where some senders transmit at zero power — so some
// occupied nodes carry zero mass and must stay masked out — across
// several epochs on one scratch (a mask must not leak children from an
// earlier slot).
func TestChildMasks(t *testing.T) {
	const n = 900
	rng := rand.New(rand.NewSource(88))
	in, err := NewInstance(workload.GaussianClusters(rng, n, 24, 3, 80), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	q, err := in.QuadTree(0.5)
	if err != nil {
		t.Fatal(err)
	}
	sc := q.NewScratch()
	for round := 0; round < 6; round++ {
		txs := driftTxSet(rng, n, 40+rng.Intn(n/2))
		zeros := 0
		for i := range txs {
			if rng.Intn(3) == 0 {
				txs[i].Power = 0
				zeros++
			}
		}
		sc.Accumulate(txs)
		assertChildMasks(t, fmt.Sprintf("round %d (%d of %d senders at zero power)", round, zeros, len(txs)), sc)
	}
}
