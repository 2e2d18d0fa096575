package sim

import "math/rand"

// NodeRand is one node's private random stream, seeded on its first draw.
// Its draws are exactly those of rand.New(rand.NewSource(Seed)), but a node
// that never draws never builds the source — a math/rand source is a
// 607-word state that costs ~600 seeding steps to fill, which dominates a
// protocol run when most nodes sit idle or only listen. The zero value
// draws the stream of seed 0. A NodeRand is owned by its node: like the
// rest of a protocol's state it is touched only from that node's Step.
type NodeRand struct {
	Seed int64
	r    *rand.Rand
}

func (s *NodeRand) rand() *rand.Rand {
	if s.r == nil {
		s.r = rand.New(rand.NewSource(s.Seed))
	}
	return s.r
}

// Float64 returns the stream's next pseudo-random number in [0,1).
func (s *NodeRand) Float64() float64 { return s.rand().Float64() }

// Intn returns the stream's next pseudo-random number in [0,n). It panics
// if n <= 0.
func (s *NodeRand) Intn(n int) int { return s.rand().Intn(n) }
