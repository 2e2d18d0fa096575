package sinr

// The listener-batching drift gate: ResolveBatch over a predicate-class
// run must deliver the exact Resolve tuple for every listener — the
// shared frontier is a walk-order-preserving fusion, not an
// approximation. Also pins that chunking is content-independent: any
// split of a run into contiguous pieces yields the same per-listener
// results, which is what lets the engine shear runs across workers at
// arbitrary chunk boundaries.

import (
	"math/rand"
	"testing"

	"sinrconn/internal/geom"
	"sinrconn/internal/workload"
)

// batchCollector records DeliverFar calls in order.
type batchCollector struct {
	v    []int
	best []int
	rp   []float64
	tot  []float64
	sat  []bool
}

func (c *batchCollector) DeliverFar(v, best int, bestRP, total float64, saturated bool) {
	c.v = append(c.v, v)
	c.best = append(c.best, best)
	c.rp = append(c.rp, bestRP)
	c.tot = append(c.tot, total)
	c.sat = append(c.sat, saturated)
}

func (c *batchCollector) reset() {
	c.v, c.best, c.rp, c.tot, c.sat = c.v[:0], c.best[:0], c.rp[:0], c.tot[:0], c.sat[:0]
}

// classRuns slices the plan's BatchSpec order into maximal runs of equal
// predicate class.
func classRuns(order, class []int32) [][]int32 {
	var runs [][]int32
	for i := 0; i < len(order); {
		j := i
		for j < len(order) && class[j] == class[i] {
			j++
		}
		runs = append(runs, order[i:j])
		i = j
	}
	return runs
}

// TestListenerBatchDriftGate pins ResolveBatch against solo Resolve,
// bit-identical tuple for tuple, across generators × α × ε, and
// re-resolves each run under random sub-splits to prove chunk boundaries
// cannot shift any listener's result. α ∈ {2, 2.5, 3, 4} takes every
// specialized path-loss arm and the generic fallback.
func TestListenerBatchDriftGate(t *testing.T) {
	specs := []workload.Spec{
		{Name: "jittered", Gen: func(rng *rand.Rand, n int) []geom.Point {
			return workload.JitteredGrid(rng, n, 3, 0.8)
		}},
		{Name: "gaussians", Gen: func(rng *rand.Rand, n int) []geom.Point {
			return workload.GaussianClusters(rng, n, 16, 3, 60)
		}},
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			for _, alpha := range []float64{2, 2.5, 3, 4} {
				alpha := alpha
				t.Run(driftFloatName(alpha), func(t *testing.T) {
					const n = 600
					rng := rand.New(rand.NewSource(733))
					pts := spec.Gen(rng, n)
					p := DefaultParams()
					p.Alpha = alpha
					in, err := NewInstance(pts, p)
					if err != nil {
						t.Fatal(err)
					}
					for _, eps := range []float64{0.1, 0.5, 2.5} {
						q, err := in.QuadTree(eps)
						if err != nil {
							t.Fatal(err)
						}
						order, class := q.BatchSpec()
						if len(order) != n || len(class) != n {
							t.Fatalf("eps %v: BatchSpec lengths (%d,%d), want (%d,%d)", eps, len(order), len(class), n, n)
						}
						seen := make([]bool, n)
						for _, v := range order {
							seen[v] = true
						}
						for v, ok := range seen {
							if !ok {
								t.Fatalf("eps %v: BatchSpec order misses node %d", eps, v)
							}
						}
						runs := classRuns(order, class)
						sc := q.NewScratch()
						bs := q.NewBatchState()
						var col batchCollector
						for round := 0; round < 3; round++ {
							txs := driftTxSet(rng, n, n/3)
							sc.Accumulate(txs)
							// Solo reference for every listener.
							wantBest := make([]int, n)
							wantRP := make([]float64, n)
							wantTot := make([]float64, n)
							wantSat := make([]bool, n)
							for v := 0; v < n; v++ {
								wantBest[v], wantRP[v], wantTot[v], wantSat[v] = sc.Resolve(v, txs)
							}
							check := func(ctx string) {
								t.Helper()
								for i, v := range col.v {
									if col.best[i] != wantBest[v] || col.rp[i] != wantRP[v] || col.tot[i] != wantTot[v] || col.sat[i] != wantSat[v] {
										t.Fatalf("eps %v round %d %s listener %d: batch (%d,%v,%v,%v) solo (%d,%v,%v,%v)",
											eps, round, ctx, v,
											col.best[i], col.rp[i], col.tot[i], col.sat[i],
											wantBest[v], wantRP[v], wantTot[v], wantSat[v])
									}
								}
							}
							// Whole runs: every listener exactly once, in order.
							col.reset()
							for _, run := range runs {
								sc.ResolveBatch(bs, run, &col)
							}
							if len(col.v) != n {
								t.Fatalf("eps %v round %d: batch delivered %d results, want %d", eps, round, len(col.v), n)
							}
							check("whole-run")
							// Random sub-splits: chunk boundaries inside a run must
							// not change any result (the engine splits runs across
							// workers at arbitrary offsets).
							col.reset()
							for _, run := range runs {
								for lo := 0; lo < len(run); {
									hi := lo + 1 + rng.Intn(len(run)-lo)
									sc.ResolveBatch(bs, run[lo:hi], &col)
									lo = hi
								}
							}
							if len(col.v) != n {
								t.Fatalf("eps %v round %d: split batch delivered %d results, want %d", eps, round, len(col.v), n)
							}
							check("sub-split")
						}
					}
				})
			}
		})
	}
}

// nullSink discards DeliverFar calls; used by the alloc gate so the sink
// itself cannot allocate.
type nullSink struct{}

func (nullSink) DeliverFar(v, best int, bestRP, total float64, saturated bool) {}

// TestResolveBatchZeroAlloc is the alloc gate for the //sinr:hotpath
// annotations on ResolveBatch and resolveChunk: a full pass over every
// predicate-class run allocates nothing.
func TestResolveBatchZeroAlloc(t *testing.T) {
	const n = 600
	rng := rand.New(rand.NewSource(57))
	pts := workload.JitteredGrid(rng, n, 3, 0.8)
	in, err := NewInstance(pts, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	q, err := in.QuadTree(0.5)
	if err != nil {
		t.Fatal(err)
	}
	order, class := q.BatchSpec()
	runs := classRuns(order, class)
	sc := q.NewScratch()
	bs := q.NewBatchState()
	txs := driftTxSet(rng, n, n/3)
	sc.Accumulate(txs)
	if allocs := testing.AllocsPerRun(20, func() {
		for _, run := range runs {
			sc.ResolveBatch(bs, run, nullSink{})
		}
	}); allocs != 0 {
		t.Fatalf("ResolveBatch allocates %.1f times/op, want 0", allocs)
	}
}
