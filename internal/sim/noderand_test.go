package sim

import (
	"math/rand"
	"testing"
)

// TestNodeRandMatchesStream pins that a NodeRand draws exactly the stream
// of rand.New(rand.NewSource(Seed)), with Float64 and Intn interleaved the
// way the protocols mix them. The stops straddle the two boundaries of the
// lazy stream: draw 273 is the last read from directly seeded words, draw
// 274 builds the register, and draw 607 is the first to wrap it. Seeds
// cover every arm of the seed reduction (zero, negative, multiples of
// 2³¹−1, wide). The Intn bounds include powers of two (the mask arm), a
// bound just over 2³⁰ whose rejection loop fires on about half of all
// draws, and bounds past 2³¹−1 (the Int63n arm).
func TestNodeRandMatchesStream(t *testing.T) {
	const m = 1<<31 - 1
	bounds := []int{1, 2, 7, 64, 1000, 1<<30 + 1, m, 1 << 31, 3 << 40, 1<<62 + 5}
	for _, seed := range []int64{0, -1, -7, m, -m, 2 * m, 89482311, 1 << 40} {
		for _, stop := range []int{0, 272, 273, 274, 606, 607, 608, 3000} {
			nr := NodeRand{Seed: seed}
			ref := rand.New(rand.NewSource(seed))
			for k := 0; k < stop; k++ {
				if k%3 == 1 {
					bound := bounds[k%len(bounds)]
					if got, want := nr.Intn(bound), ref.Intn(bound); got != want {
						t.Fatalf("seed %d draw %d: Intn(%d) = %d, want %d", seed, k, bound, got, want)
					}
					continue
				}
				if got, want := nr.Float64(), ref.Float64(); got != want {
					t.Fatalf("seed %d draw %d: Float64 = %v, want %v", seed, k, got, want)
				}
			}
			// The next draw after the stop still agrees.
			if got, want := nr.Float64(), ref.Float64(); got != want {
				t.Fatalf("seed %d after %d draws: Float64 = %v, want %v", seed, stop, got, want)
			}
		}
	}
}

// TestNodeRandLazy pins that building a NodeRand and its first 273 draws
// allocate nothing and build no register; only draw 274 does. Intn takes a
// power-of-two bound so each call is exactly one draw.
func TestNodeRandLazy(t *testing.T) {
	const runs = 100
	nodes := make([]NodeRand, runs+1)
	next := 0
	if allocs := testing.AllocsPerRun(runs, func() {
		nodes[next] = NodeRand{Seed: int64(next)}
		for k := 0; k < rngTap; k++ {
			if k%2 == 0 {
				nodes[next].Float64()
			} else {
				nodes[next].Intn(64)
			}
		}
		next++
	}); allocs != 0 {
		t.Fatalf("a NodeRand's first %d draws allocate %.1f times/op, want 0", rngTap, allocs)
	}
	for i := range nodes[:next] {
		if nodes[i].vec != nil {
			t.Fatalf("node %d built its register within %d draws", i, rngTap)
		}
	}
	nodes[3].Intn(10)
	if nodes[3].vec == nil {
		t.Fatalf("draw %d did not build the register", rngTap+1)
	}
}
