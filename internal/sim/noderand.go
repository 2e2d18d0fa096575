package sim

import "math/rand"

// NodeRand is one node's private random stream. Its draws are exactly those
// of rand.New(rand.NewSource(Seed)), but it never builds that source.
//
// A math/rand source is an additive lagged-Fibonacci register of 607 words,
// and seeding one fills all of them with 1,841 serial Lehmer steps. Yet
// draw j < 273 reads only two words the seeding wrote directly
// (vec[333−j] and vec[606−j]), and each such word is a closed form of the
// seed: three Lehmer iterates x_k = x₀·48271^k mod (2³¹−1), read from a
// shared power table, XORed with math/rand's seeding constants. So the
// first 273 draws compute two words each and allocate nothing; a protocol
// run where nodes draw a few dozen times never pays for a register. Draw
// 274 builds the register once — the seeded words, then the 273 writes
// replayed — and from then on the stream steps it as math/rand does.
//
// The zero value draws the stream of seed 0. A NodeRand is owned by its
// node: like the rest of a protocol's state it is touched only from that
// node's Step.
type NodeRand struct {
	Seed int64
	x0   uint32         // Seed reduced as rngSource.Seed reduces it; 0 until the first draw
	n    int32          // draws made from directly seeded words, ≤ rngTap
	vec  *[rngLen]int64 // the register, nil until draw rngTap+1
	// tap and feed are the register cursors of rngSource, valid once vec
	// is built.
	tap, feed int32
}

// The geometry and seeding constants of math/rand's source (rng.go).
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	// lehmerMul is the multiplier of the Lehmer generator that seeds the
	// register: x_{k+1} = lehmerMul·x_k mod int32max.
	lehmerMul = 48271
	// lehmerSteps is the last Lehmer iterate the seeding reads: 20
	// discarded steps, then three per register word.
	lehmerSteps = 20 + 3*rngLen
)

var (
	// lehmerPow[k] is lehmerMul^k mod int32max, so the seeding's k-th
	// iterate is x₀·lehmerPow[k] mod int32max.
	lehmerPow [lehmerSteps + 1]uint64
	// rngCooked is math/rand's unexported seeding whitener, which the
	// seeding XORs into every word. init recovers it from the source's
	// own output.
	rngCooked [rngLen]int64
)

func init() {
	lehmerPow[0] = 1
	for k := 1; k < len(lehmerPow); k++ {
		lehmerPow[k] = lehmerPow[k-1] * lehmerMul % int32max
	}
	// Recover seed 1's register from its first rngLen outputs. Draw j
	// overwrites word feed(j) with feed(j)+tap(j) and returns the sum. For
	// j ≥ rngTap the tap word is the one draw j−rngTap wrote, i.e. that
	// draw's output; for j < rngTap it is a seeded word that a later draw
	// (j+rngLen−rngTap) recovers first. Every feed word is written once in
	// the first rngLen draws, so each subtraction yields a seeded word.
	src := rand.NewSource(1).(rand.Source64)
	var out, vec [rngLen]int64
	for j := range out {
		out[j] = int64(src.Uint64())
	}
	feed := func(j int) int { return (2*rngLen - rngTap - 1 - j) % rngLen }
	for j := rngTap; j < rngLen; j++ {
		vec[feed(j)] = out[j] - out[j-rngTap]
	}
	for j := 0; j < rngTap; j++ {
		vec[feed(j)] = out[j] - vec[rngLen-1-j]
	}
	x0 := seedBase(1)
	for i := range rngCooked {
		rngCooked[i] = vec[i] ^ lehmerWord(x0, i)
	}
}

// seedBase reduces a seed to the Lehmer generator's start value exactly as
// rngSource.Seed does.
func seedBase(seed int64) uint32 {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	return uint32(seed)
}

// seededWord is word i of the register rngSource.Seed fills for start
// value x0.
func seededWord(x0 uint32, i int) int64 { return lehmerWord(x0, i) ^ rngCooked[i] }

// lehmerWord is the Lehmer part of seeded register word i:
// x_{3i+21}<<40 ^ x_{3i+22}<<20 ^ x_{3i+23}.
func lehmerWord(x0 uint32, i int) int64 {
	x, k := uint64(x0), 3*i+21
	return int64(x*lehmerPow[k]%int32max)<<40 ^
		int64(x*lehmerPow[k+1]%int32max)<<20 ^
		int64(x*lehmerPow[k+2]%int32max)
}

// int63 returns the stream's next rngSource.Int63.
//
//sinr:hotpath
func (s *NodeRand) int63() int64 {
	if s.vec == nil {
		if s.x0 == 0 {
			s.x0 = seedBase(s.Seed)
		}
		if j := int(s.n); j < rngTap {
			s.n++
			return (seededWord(s.x0, rngLen-rngTap-1-j) + seededWord(s.x0, rngLen-1-j)) & rngMask
		}
		s.build()
	}
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x & rngMask
}

// build materializes the register as it stands after the first rngTap
// draws: the seeded words, with those draws' writes replayed.
func (s *NodeRand) build() {
	vec := new([rngLen]int64)
	for i := range vec {
		vec[i] = seededWord(s.x0, i)
	}
	for j := 0; j < rngTap; j++ {
		vec[rngLen-rngTap-1-j] += vec[rngLen-1-j]
	}
	s.vec = vec
	s.tap = rngLen - rngTap
	s.feed = rngLen - 2*rngTap
}

// Float64 returns the stream's next pseudo-random number in [0,1), as
// rand.Rand.Float64 does.
//
//sinr:hotpath
func (s *NodeRand) Float64() float64 {
again:
	f := float64(s.int63()) / (1 << 63)
	if f == 1 {
		goto again // resample, as math/rand does
	}
	return f
}

// Intn returns the stream's next pseudo-random number in [0,n), as
// rand.Rand.Intn does. It panics if n <= 0.
//
//sinr:hotpath
func (s *NodeRand) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n <= int32max {
		return int(s.int31n(int32(n)))
	}
	return int(s.int63n(int64(n)))
}

// int31n transcribes rand.Rand.Int31n.
func (s *NodeRand) int31n(n int32) int32 {
	if n&(n-1) == 0 {
		return int32(s.int63()>>32) & (n - 1)
	}
	max := int32(1<<31 - 1 - (1<<31)%uint32(n))
	v := int32(s.int63() >> 32)
	for v > max {
		v = int32(s.int63() >> 32)
	}
	return v % n
}

// int63n transcribes rand.Rand.Int63n.
func (s *NodeRand) int63n(n int64) int64 {
	if n&(n-1) == 0 {
		return s.int63() & (n - 1)
	}
	max := int64(1<<63 - 1 - (1<<63)%uint64(n))
	v := s.int63()
	for v > max {
		v = s.int63()
	}
	return v % n
}
