package sim

import (
	"math/rand"
	"testing"
)

// TestNodeRandMatchesStream pins that a NodeRand draws exactly the stream
// of rand.New(rand.NewSource(Seed)), with Float64 and Intn interleaved the
// way the protocols mix them.
func TestNodeRandMatchesStream(t *testing.T) {
	for _, seed := range []int64{0, 1, -7, 1 << 40} {
		nr := NodeRand{Seed: seed}
		ref := rand.New(rand.NewSource(seed))
		for k := 0; k < 200; k++ {
			if k%3 == 1 {
				bound := 1 + k%17
				if got, want := nr.Intn(bound), ref.Intn(bound); got != want {
					t.Fatalf("seed %d draw %d: Intn(%d) = %d, want %d", seed, k, bound, got, want)
				}
				continue
			}
			if got, want := nr.Float64(), ref.Float64(); got != want {
				t.Fatalf("seed %d draw %d: Float64 = %v, want %v", seed, k, got, want)
			}
		}
	}
}

// TestNodeRandLazy pins that building a NodeRand allocates nothing and
// seeds no source: only the first draw does.
func TestNodeRandLazy(t *testing.T) {
	nodes := make([]NodeRand, 64)
	if allocs := testing.AllocsPerRun(100, func() {
		for i := range nodes {
			nodes[i] = NodeRand{Seed: int64(i)}
		}
	}); allocs != 0 {
		t.Fatalf("building NodeRands allocates %.1f times/op, want 0", allocs)
	}
	for i := range nodes {
		if nodes[i].r != nil {
			t.Fatalf("node %d seeded before its first draw", i)
		}
	}
	nodes[3].Float64()
	if nodes[3].r == nil {
		t.Fatal("first draw did not seed the stream")
	}
}
