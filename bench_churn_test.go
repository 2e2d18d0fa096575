package sinrconn

// BenchmarkChurn quantifies the continuous-churn engine: event throughput
// of the full driver (BenchmarkChurn) and the headline robustness number —
// incremental schedule repair versus full rebuild after a correlated burst
// touching a few percent of the nodes (BenchmarkChurnRepairVsRebuild).
// Incremental repair splices every untouched slot verbatim and re-places
// only the orphaned subtrees, so its cost tracks the burst size while a
// rebuild tracks n; the gap is the engine's reason to exist.
//
// Sizes past the gain-table memory bound (n = 16384) run under the
// quadtree far-field channel (ε = 1.0) with per-slot exact/far selection,
// the path a production churn session takes. BENCH_churn.json records the
// headline numbers; its n = 16384 rows were measured on the retired flat
// tile grid, with every slot forced far.

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"sinrconn/internal/core"
	"sinrconn/internal/sinr"
	"sinrconn/internal/tree"
	"sinrconn/internal/workload"
)

// churnBenchInstance builds the benchmark deployment at the physics
// benchmarks' density, far-field mode past the gain-table bound.
func churnBenchInstance(b *testing.B, n int) (*sinr.Instance, *sinr.QuadTree) {
	b.Helper()
	rng := rand.New(rand.NewSource(int64(n) * 3))
	pts := workload.JitteredGrid(rng, n, 2.6, 0.8)
	in := sinr.MustInstance(pts, sinr.DefaultParams())
	var ff *sinr.QuadTree
	if uint64(n)*uint64(n)*8 > 256<<20 { // past the gain-table memory bound
		q, err := in.QuadTree(1.0)
		if err != nil {
			b.Fatal(err)
		}
		ff = q
	}
	return in, ff
}

func churnBenchConfig(seed int64, ff *sinr.QuadTree) core.InitConfig {
	return core.InitConfig{Seed: seed, Far: ff}
}

// churnBenchTree builds the initial tree once per size (outside timers).
func churnBenchTree(b *testing.B, in *sinr.Instance, ff *sinr.QuadTree) *tree.BiTree {
	b.Helper()
	ires, err := core.Init(context.Background(), in, churnBenchConfig(1, ff))
	if err != nil {
		b.Fatal(err)
	}
	ires.Tree.Compact()
	return ires.Tree
}

// burstVictims picks a spatially correlated failure disc of ~frac·n nodes
// (grown from a fixed epicenter outward), the shape churn bursts produce.
func burstVictims(in *sinr.Instance, bt *tree.BiTree, frac float64) []int {
	epi := in.Point(bt.Nodes[len(bt.Nodes)/2])
	byDist := append([]int(nil), bt.Nodes...)
	sort.Slice(byDist, func(i, j int) bool {
		return in.Point(byDist[i]).DistSq(epi) < in.Point(byDist[j]).DistSq(epi)
	})
	k := int(frac * float64(len(bt.Nodes)))
	if k < 1 {
		k = 1
	}
	victims := byDist[:k]
	for i, v := range victims {
		if v == bt.Root { // keep the root out: pure re-attachment cost
			victims[i] = byDist[k]
			break
		}
	}
	return victims
}

// BenchmarkChurn measures driver throughput: one op is a full mixed trace
// (joins, failures, bursts, showers, mobility) on a fresh Network; the
// events/sec metric is the headline.
func BenchmarkChurn(b *testing.B) {
	ctx := context.Background()
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(n) * 3))
			g := workload.JitteredGrid(rng, n, 2.6, 0.8)
			pts := make([]Point, len(g))
			for i, p := range g {
				pts[i] = Point{X: p.X, Y: p.Y}
			}
			const events = 40
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				nw, err := Open(pts)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				rep, err := nw.Churn(ctx, mixedTrace(int64(i)+1, events))
				if err != nil {
					b.Fatal(err)
				}
				_ = rep
				b.StopTimer()
				nw.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(events*b.N)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}

// BenchmarkChurnRepairVsRebuild is the acceptance benchmark: after a
// correlated burst kills ~2% of the deployment (≤ 5%, the incremental
// regime), repair the schedule incrementally versus rebuilding the tree
// from scratch over the survivors. Ratio recorded in BENCH_churn.json.
func BenchmarkChurnRepairVsRebuild(b *testing.B) {
	ctx := context.Background()
	for _, n := range []int{1024, 4096, 16384} {
		in, ff := churnBenchInstance(b, n)
		bt := churnBenchTree(b, in, ff)
		victims := burstVictims(in, bt, 0.02)
		survivors := make([]int, 0, len(bt.Nodes)-len(victims))
		dead := make(map[int]bool, len(victims))
		for _, v := range victims {
			dead[v] = true
		}
		for _, v := range bt.Nodes {
			if !dead[v] {
				survivors = append(survivors, v)
			}
		}
		b.Run(fmt.Sprintf("incremental/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.RepairIncremental(ctx, in, bt, victims, churnBenchConfig(int64(i)+2, ff)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("rebuild/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := churnBenchConfig(int64(i)+2, ff)
				cfg.Participants = survivors
				if _, err := core.Init(ctx, in, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
