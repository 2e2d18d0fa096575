package sinr

// Sharded-accumulate determinism suite: AccumBegin + AccumShard×k +
// AccumFinish must reproduce the serial Accumulate BIT-identically — same
// occupied nodes, same aggregates, same leaf buckets, same walk outputs —
// for ANY order the shards run in (the parallel dispatch assigns shards to
// workers, and workers interleave arbitrarily). The permutations below
// emulate 1/2/8/32-worker assignments plus adversarial orders (reverse,
// random); the pool-level test rides in internal/sim.

import (
	"fmt"
	"math/rand"
	"testing"

	"sinrconn/internal/geom"
	"sinrconn/internal/workload"
)

// shardOrders returns shard execution orders emulating strided 1/2/8/32
// worker assignments (worker k folds shards k, k+W, …, sequentially
// emulating the parallel dispatch) plus reverse and random interleavings.
func shardOrders(rng *rand.Rand, nsh int) [][]int {
	var orders [][]int
	for _, w := range []int{1, 2, 8, 32} {
		ord := make([]int, 0, nsh)
		for k := 0; k < w; k++ {
			for s := k; s < nsh; s += w {
				ord = append(ord, s)
			}
		}
		orders = append(orders, ord)
	}
	rev := make([]int, nsh)
	for i := range rev {
		rev[i] = nsh - 1 - i
	}
	orders = append(orders, rev)
	shuf := rng.Perm(nsh)
	orders = append(orders, shuf)
	return orders
}

// assertPyramidEqual compares every pyramid node of two scratches built
// over the same plan: occupancy, aggregates (f64 and, when mirrored, f32)
// bit for bit, and child masks.
func assertPyramidEqual(t *testing.T, label string, a, b *QuadScratch) {
	t.Helper()
	q := a.q
	for g := 0; g < q.nodes; g++ {
		aon := a.stamp[g] == a.epoch
		bon := b.stamp[g] == b.epoch
		if aon != bon {
			t.Fatalf("%s: node %d occupancy serial %v sharded %v", label, g, aon, bon)
		}
		if !aon {
			continue
		}
		if a.node[g].mass != b.node[g].mass || a.node[g].cenX != b.node[g].cenX || a.node[g].cenY != b.node[g].cenY || a.node[g].pmax != b.node[g].pmax {
			t.Fatalf("%s: node %d aggregates serial (%v,%v,%v,%v) sharded (%v,%v,%v,%v)",
				label, g, a.node[g].mass, a.node[g].cenX, a.node[g].cenY, a.node[g].pmax,
				b.node[g].mass, b.node[g].cenX, b.node[g].cenY, b.node[g].pmax)
		}
		if a.kids[g] != b.kids[g] {
			t.Fatalf("%s: node %d child mask serial %04b sharded %04b", label, g, a.kids[g], b.kids[g])
		}
		if a.prec32 {
			if a.mass32[g] != b.mass32[g] || a.cenX32[g] != b.cenX32[g] || a.cenY32[g] != b.cenY32[g] {
				t.Fatalf("%s: node %d f32 mirror serial (%v,%v,%v) sharded (%v,%v,%v)",
					label, g, a.mass32[g], a.cenX32[g], a.cenY32[g],
					b.mass32[g], b.cenX32[g], b.cenY32[g])
			}
		}
	}
}

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

// TestChildMasks pins the child-mask invariant after serial and sharded
// accumulation, over sender sets where some senders transmit at zero
// power — so some occupied nodes carry zero mass and must stay masked
// out — across several epochs on one scratch (a mask must not leak
// children from an earlier slot).
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
	serial, sharded := q.NewScratch(), q.NewScratch()
	for round := 0; round < 6; round++ {
		txs := driftTxSet(rng, n, 40+rng.Intn(n/2))
		zeros := 0
		for i := range txs {
			if rng.Intn(3) == 0 {
				txs[i].Power = 0
				zeros++
			}
		}
		serial.Accumulate(txs)
		sharded.AccumBegin(txs)
		for sh := 0; sh < sharded.AccumShards(); sh++ {
			sharded.AccumShard(sh, txs)
		}
		sharded.AccumFinish()
		label := fmt.Sprintf("round %d (%d of %d senders at zero power)", round, zeros, len(txs))
		assertChildMasks(t, label+" serial", serial)
		assertChildMasks(t, label+" sharded", sharded)
		assertPyramidEqual(t, label, serial, sharded)
	}
}

// assertBucketsEqual compares per-leaf exact-scan buckets: same txs in the
// same order with the same streamed coordinates, independently of where
// each bucket landed in the global arrays (the sharded layout segments
// them by shard, the serial one by global first touch — the scans only
// ever read one bucket contiguously).
func assertBucketsEqual(t *testing.T, label string, a, b *QuadScratch, txs []Tx) {
	t.Helper()
	q := a.q
	leafOff := q.levelOff[q.levels]
	for tl := int32(0); tl < int32(q.Leaves()); tl++ {
		if a.stamp[leafOff+tl] != a.epoch {
			continue
		}
		if a.fill[tl] != b.fill[tl] {
			t.Fatalf("%s: leaf %d fill serial %d sharded %d", label, tl, a.fill[tl], b.fill[tl])
		}
		for k := int32(0); k < a.fill[tl]; k++ {
			ai, bi := a.start[tl]+k, b.start[tl]+k
			if a.order[ai] != b.order[bi] || a.sx[ai] != b.sx[bi] || a.sy[ai] != b.sy[bi] || a.sp[ai] != b.sp[bi] {
				t.Fatalf("%s: leaf %d slot %d: serial (tx %d, %v,%v,%v) sharded (tx %d, %v,%v,%v)",
					label, tl, k, a.order[ai], a.sx[ai], a.sy[ai], a.sp[ai],
					b.order[bi], b.sx[bi], b.sy[bi], b.sp[bi])
			}
		}
	}
}

// TestShardedAccumulateDeterminism is the drift gate: for every shard
// execution order, the sharded pyramid, its leaf buckets, the active-list
// merge levels, and every downstream Resolve/LinkSINR output must equal
// the serial pass bit for bit — in both precisions, across repeated epochs
// on reused scratches.
func TestShardedAccumulateDeterminism(t *testing.T) {
	specs := []workload.Spec{
		{Name: "jittered", Gen: func(rng *rand.Rand, n int) []geom.Point {
			return workload.JitteredGrid(rng, n, 3, 0.8)
		}},
		{Name: "gaussians", Gen: func(rng *rand.Rand, n int) []geom.Point {
			return workload.GaussianClusters(rng, n, 24, 3, 80)
		}},
	}
	for _, spec := range specs {
		for _, prec32 := range []bool{false, true} {
			spec, prec32 := spec, prec32
			name := spec.Name + "/f64"
			if prec32 {
				name = spec.Name + "/f32"
			}
			t.Run(name, func(t *testing.T) {
				const n = 900
				rng := rand.New(rand.NewSource(401))
				pts := spec.Gen(rng, n)
				in, err := NewInstance(pts, DefaultParams())
				if err != nil {
					t.Fatal(err)
				}
				for _, eps := range []float64{0.1, 0.5} {
					q, err := in.QuadTree(eps)
					if err != nil {
						t.Fatal(err)
					}
					serial := q.newScratch(prec32)
					sharded := q.newScratch(prec32)
					nsh := sharded.AccumShards()
					if nsh < 64 {
						t.Fatalf("eps %v: %d shards at n=%d (levels %d), want the full 64", eps, nsh, n, q.Levels())
					}
					orders := shardOrders(rng, nsh)
					for round, ord := range orders {
						txs := driftTxSet(rng, n, n/2)
						serial.Accumulate(txs)
						sharded.AccumBegin(txs)
						for _, sh := range ord {
							sharded.AccumShard(sh, txs)
						}
						sharded.AccumFinish()

						label := name
						assertPyramidEqual(t, label, serial, sharded)
						assertBucketsEqual(t, label, serial, sharded, txs)
						// The merge levels' active lists must equal the
						// serial first-touch lists exactly (the fold order
						// of the cross-shard merge).
						for lvl := 0; lvl <= sharded.shardS; lvl++ {
							sa, ba := serial.active[lvl], sharded.active[lvl]
							if len(sa) != len(ba) {
								t.Fatalf("%s round %d level %d: active len serial %d sharded %d",
									label, round, lvl, len(sa), len(ba))
							}
							for i := range sa {
								if sa[i] != ba[i] {
									t.Fatalf("%s round %d level %d pos %d: active serial %d sharded %d",
										label, round, lvl, i, sa[i], ba[i])
								}
							}
						}
						for v := 0; v < n; v += 7 {
							sb, srp, st, ss := serial.Resolve(v, txs)
							bb, brp, bt, bs := sharded.Resolve(v, txs)
							if sb != bb || srp != brp || st != bt || ss != bs {
								t.Fatalf("%s round %d listener %d: Resolve serial (%d,%v,%v,%v) sharded (%d,%v,%v,%v)",
									label, round, v, sb, srp, st, ss, bb, brp, bt, bs)
							}
						}
						for k := 0; k < len(txs); k += 9 {
							l := Link{From: txs[k].Sender, To: (txs[k].Sender + 5) % n}
							if l.From == l.To {
								continue
							}
							if got, want := sharded.LinkSINR(txs, l, txs[k].Power), serial.LinkSINR(txs, l, txs[k].Power); got != want {
								t.Fatalf("%s round %d LinkSINR(%v): sharded %v serial %v", label, round, l, got, want)
							}
						}
					}
				}
			})
		}
	}
}

// TestShardedAccumulateZeroAlloc is the alloc gate for the
// //sinr:hotpath annotations on AccumBegin, AccumShard, AccumFinish, and
// the f32 rounding tails round32Shard/round32Finish: after the first
// epoch sizes the arena, a full sharded accumulation allocates nothing.
func TestShardedAccumulateZeroAlloc(t *testing.T) {
	const n = 900
	rng := rand.New(rand.NewSource(19))
	pts := workload.JitteredGrid(rng, n, 3, 0.8)
	in, err := NewInstance(pts, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	q, err := in.QuadTree(0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, prec32 := range []bool{false, true} {
		sc := q.newScratch(prec32)
		txs := driftTxSet(rng, n, n/2)
		nsh := sc.AccumShards()
		accum := func() {
			sc.AccumBegin(txs)
			for sh := 0; sh < nsh; sh++ {
				sc.AccumShard(sh, txs)
			}
			sc.AccumFinish()
		}
		accum() // first epoch sizes the shard arena
		if allocs := testing.AllocsPerRun(20, accum); allocs != 0 {
			t.Fatalf("prec32=%v: sharded accumulation allocates %.1f times/op, want 0", prec32, allocs)
		}
	}
}
