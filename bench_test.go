package sinrconn_test

// One benchmark per experiment table (E1 and E3–E12, see DESIGN.md §4 and
// EXPERIMENTS.md). Each bench runs the measurement behind its table at a
// representative size and reports the headline quantity via b.ReportMetric,
// so `go test -bench=. -benchmem` regenerates the numbers the tables
// summarize. cmd/experiments prints the full sweeps.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sinrconn"
	"sinrconn/internal/core"
	"sinrconn/internal/geom"
	"sinrconn/internal/power"
	"sinrconn/internal/sim"
	"sinrconn/internal/sinr"
	"sinrconn/internal/sparsity"
	"sinrconn/internal/tree"
	"sinrconn/internal/workload"
)

const benchN = 96

// benchSizes is the scale sweep the physics kernel makes affordable (the
// pre-kernel suite was capped at n=96). Tables that sweep sizes use it;
// single-size tables stay at benchN so their metrics remain comparable with
// the original E1–E12 numbers.
var benchSizes = []int{benchN, 256, 1024}

// cpuPool returns a NumCPU-worker pool that tb closes when it ends: the
// benchmarks run their engines on one, as a session's engines run on its
// pool.
func cpuPool(tb testing.TB) *sim.Pool {
	p := sim.NewPool(0)
	tb.Cleanup(p.Close)
	return p
}

func benchInstance(seed int64) *sinr.Instance {
	return benchInstanceN(seed, benchN)
}

func benchInstanceN(seed int64, n int) *sinr.Instance {
	rng := rand.New(rand.NewSource(seed))
	return sinr.MustInstance(workload.UniformDensity(rng, n, 0.15), sinr.DefaultParams())
}

// BenchmarkE1InitSlots regenerates Table E1: Init construction time
// (Theorem 2, O(log Δ·log n) slots), swept over benchSizes.
func BenchmarkE1InitSlots(b *testing.B) {
	pool := cpuPool(b)
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			in := benchInstanceN(1, n)
			total := 0
			for i := 0; i < b.N; i++ {
				res, err := core.Init(context.Background(), in, core.InitConfig{Channel: sim.Config{Seed: int64(i), Pool: pool}})
				if err != nil {
					b.Fatal(err)
				}
				total += res.SlotsUsed
			}
			b.ReportMetric(float64(total)/float64(b.N), "slots/op")
		})
	}
}

// BenchmarkE3DegreeTail regenerates Table E3: max degree vs log n
// (Theorem 7).
func BenchmarkE3DegreeTail(b *testing.B) {
	pool := cpuPool(b)
	in := benchInstance(3)
	worst := 0
	for i := 0; i < b.N; i++ {
		res, err := core.Init(context.Background(), in, core.InitConfig{Channel: sim.Config{Seed: int64(i), Pool: pool}})
		if err != nil {
			b.Fatal(err)
		}
		if d := res.Tree.MaxDegree(); d > worst {
			worst = d
		}
	}
	b.ReportMetric(float64(worst)/math.Log2(benchN), "maxdeg/log2n")
}

// BenchmarkE4Sparsity regenerates Table E4: ψ(T) vs log n (Theorem 11).
func BenchmarkE4Sparsity(b *testing.B) {
	pool := cpuPool(b)
	in := benchInstance(4)
	res, err := core.Init(context.Background(), in, core.InitConfig{Channel: sim.Config{Seed: 1, Pool: pool}})
	if err != nil {
		b.Fatal(err)
	}
	links := res.Tree.Links()
	psi := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		psi = sparsity.MeasureAtScales(in, links)
	}
	b.ReportMetric(float64(psi), "psi")
}

// BenchmarkE5LowDegreeFilter regenerates Table E5: T(M) sparsity and
// retention (Theorem 13).
func BenchmarkE5LowDegreeFilter(b *testing.B) {
	pool := cpuPool(b)
	in := benchInstance(5)
	res, err := core.Init(context.Background(), in, core.InitConfig{Channel: sim.Config{Seed: 1, Pool: pool}})
	if err != nil {
		b.Fatal(err)
	}
	frac := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sub := core.LowDegreeSubset(res.Tree, 0)
		frac = float64(len(sub)) / float64(len(res.Tree.Up))
	}
	b.ReportMetric(frac, "retention")
}

// BenchmarkE6MeanReschedule regenerates Table E6: distributed mean-power
// rescheduling of T (Theorem 3).
func BenchmarkE6MeanReschedule(b *testing.B) {
	pool := cpuPool(b)
	in := benchInstance(6)
	res, err := core.Init(context.Background(), in, core.InitConfig{Channel: sim.Config{Seed: 1, Pool: pool}})
	if err != nil {
		b.Fatal(err)
	}
	pa := sinr.NoiseSafeMean(in.Params(), math.Max(1, in.Delta()))
	slots := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rres, err := core.Reschedule(context.Background(), in, res.Tree, pa, sim.Config{Seed: int64(i), Pool: pool})
		if err != nil {
			b.Fatal(err)
		}
		slots = rres.NumSlots
	}
	b.ReportMetric(float64(slots), "slots")
}

// BenchmarkE7Iterations regenerates Table E7: TreeViaCapacity iteration
// count (Theorem 12).
func BenchmarkE7Iterations(b *testing.B) {
	pool := cpuPool(b)
	in := benchInstance(7)
	iters := 0
	for i := 0; i < b.N; i++ {
		res, err := core.TreeViaCapacity(context.Background(), in, core.TVCConfig{
			Variant: core.VariantArbitrary, Init: core.InitConfig{Channel: sim.Config{Seed: int64(i), Pool: pool}},
		})
		if err != nil {
			b.Fatal(err)
		}
		iters = res.Iterations
	}
	b.ReportMetric(float64(iters)/math.Log2(benchN), "iters/log2n")
}

// BenchmarkE8ArbitraryPower regenerates Table E8: final schedule length of
// the arbitrary-power bi-tree (Theorem 4a).
func BenchmarkE8ArbitraryPower(b *testing.B) {
	pool := cpuPool(b)
	in := benchInstance(8)
	slots := 0
	for i := 0; i < b.N; i++ {
		res, err := core.TreeViaCapacity(context.Background(), in, core.TVCConfig{
			Variant: core.VariantArbitrary, Init: core.InitConfig{Channel: sim.Config{Seed: int64(i), Pool: pool}},
		})
		if err != nil {
			b.Fatal(err)
		}
		slots = res.Tree.NumSlots()
	}
	b.ReportMetric(float64(slots)/math.Log2(benchN), "slots/log2n")
}

// BenchmarkE9MeanPower regenerates Table E9: final schedule length of the
// mean-power bi-tree (Theorem 4b).
func BenchmarkE9MeanPower(b *testing.B) {
	pool := cpuPool(b)
	in := benchInstance(9)
	slots := 0
	for i := 0; i < b.N; i++ {
		res, err := core.TreeViaCapacity(context.Background(), in, core.TVCConfig{
			Variant: core.VariantMean, Init: core.InitConfig{Channel: sim.Config{Seed: int64(i), Pool: pool}},
		})
		if err != nil {
			b.Fatal(err)
		}
		slots = res.Tree.NumSlots()
	}
	b.ReportMetric(float64(slots)/(in.Upsilon()*math.Log2(benchN)), "slots/(ups*log2n)")
}

// BenchmarkE10Crossover regenerates Table E10: uniform vs mean first-fit on
// the same high-Δ tree.
func BenchmarkE10Crossover(b *testing.B) {
	pool := cpuPool(b)
	in := sinr.MustInstance(workload.ChainForDelta(benchN/2, 1<<18), sinr.DefaultParams())
	res, err := core.Init(context.Background(), in, core.InitConfig{Channel: sim.Config{Seed: 1, Pool: pool}})
	if err != nil {
		b.Fatal(err)
	}
	ratio := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := core.UniformScheduleLength(in, res.Tree)
		m := core.MeanScheduleLength(in, res.Tree)
		ratio = float64(u) / math.Max(1, float64(m))
	}
	b.ReportMetric(ratio, "uniform/mean")
}

// BenchmarkE11Latency regenerates Table E11: converge-cast latency on the
// Section-8 bi-tree (Definition 1 / Theorem 4).
func BenchmarkE11Latency(b *testing.B) {
	pool := cpuPool(b)
	in := benchInstance(11)
	res, err := core.TreeViaCapacity(context.Background(), in, core.TVCConfig{
		Variant: core.VariantArbitrary, Init: core.InitConfig{Channel: sim.Config{Seed: 1, Pool: pool}},
	})
	if err != nil {
		b.Fatal(err)
	}
	lat := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := res.Tree.AggregationLatency()
		if err != nil {
			b.Fatal(err)
		}
		lat = l
	}
	b.ReportMetric(float64(lat), "agg_slots")
}

// BenchmarkE12CapacityRatio regenerates Table E12: Distr-Cap yield against
// the centralized Kesselheim selection (Theorem 20).
func BenchmarkE12CapacityRatio(b *testing.B) {
	pool := cpuPool(b)
	in := benchInstance(12)
	ires, err := core.Init(context.Background(), in, core.InitConfig{Channel: sim.Config{Seed: 1, Pool: pool}})
	if err != nil {
		b.Fatal(err)
	}
	sub := core.LowDegreeSubset(ires.Tree, 0)
	links := make([]sinr.Link, len(sub))
	for i, tl := range sub {
		links[i] = tl.L
	}
	central := len(core.CentralCapacity(in, links, 0))
	ratio := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := core.DistrCap(in, links, core.DistrCapConfig{Seed: int64(i), Repeats: 4})
		ratio = float64(len(d.Selected)) / math.Max(1, float64(central))
	}
	b.ReportMetric(ratio, "distr/central")
}

// BenchmarkAggregationEpoch times one physical converge-cast epoch
// (Definition 1 made physical) on an Init tree and on an arbitrary-power
// TVC tree, and reports the epoch's transmit energy.
func BenchmarkAggregationEpoch(b *testing.B) {
	pool := cpuPool(b)
	in := benchInstance(13)
	ires, err := core.Init(context.Background(), in, core.InitConfig{Channel: sim.Config{Seed: 1, Pool: pool}})
	if err != nil {
		b.Fatal(err)
	}
	tres, err := core.TreeViaCapacity(context.Background(), in, core.TVCConfig{Variant: core.VariantArbitrary, Init: core.InitConfig{Channel: sim.Config{Seed: 1, Pool: pool}}})
	if err != nil {
		b.Fatal(err)
	}
	values := make([]int64, in.Len())
	for i := range values {
		values[i] = int64(i)
	}
	for _, c := range []struct {
		name string
		bt   *tree.BiTree
	}{{"init", ires.Tree}, {"tvc-arbitrary", tres.Tree}} {
		b.Run("tree="+c.name, func(b *testing.B) {
			energy := 0.0
			for i := 0; i < b.N; i++ {
				out, err := core.RunAggregation(context.Background(), in, c.bt, values, sinrconn.SumAgg, sim.Config{Pool: pool})
				if err != nil {
					b.Fatal(err)
				}
				energy = out.Energy
			}
			b.ReportMetric(energy, "epoch_energy")
		})
	}
}

// --- ablation benches (tables A1–A5, design-choice sweeps) ---

// BenchmarkA1BroadcastProb regenerates Table A1 at the default p,
// reporting slots so alternative p values can be compared with -benchtime.
func BenchmarkA1BroadcastProb(b *testing.B) {
	pool := cpuPool(b)
	for _, p := range []float64{0.1, 0.25, 0.45} {
		b.Run(fmt.Sprintf("p=%.2f", p), func(b *testing.B) {
			in := benchInstance(31)
			slots := 0
			for i := 0; i < b.N; i++ {
				res, err := core.Init(context.Background(), in, core.InitConfig{BroadcastProb: p, Channel: sim.Config{Seed: int64(i), Pool: pool}})
				if err != nil {
					b.Fatal(err)
				}
				slots = res.SlotsUsed
			}
			b.ReportMetric(float64(slots), "slots")
		})
	}
}

// BenchmarkA3DistrCapTau regenerates Table A3's yield column.
func BenchmarkA3DistrCapTau(b *testing.B) {
	pool := cpuPool(b)
	in := benchInstance(33)
	ires, err := core.Init(context.Background(), in, core.InitConfig{Channel: sim.Config{Seed: 1, Pool: pool}})
	if err != nil {
		b.Fatal(err)
	}
	sub := core.LowDegreeSubset(ires.Tree, 0)
	links := make([]sinr.Link, len(sub))
	for i, tl := range sub {
		links[i] = tl.L
	}
	for _, tau := range []float64{0.4, 1.5, 3.0} {
		b.Run(fmt.Sprintf("tau=%.1f", tau), func(b *testing.B) {
			yield := 0
			for i := 0; i < b.N; i++ {
				d := core.DistrCap(in, links, core.DistrCapConfig{Tau: tau, Seed: int64(i)})
				yield = len(d.Selected)
			}
			b.ReportMetric(float64(yield), "selected")
		})
	}
}

// BenchmarkA5DropRobustness regenerates Table A5: Init under fading.
func BenchmarkA5DropRobustness(b *testing.B) {
	pool := cpuPool(b)
	for _, drop := range []float64{0, 0.3} {
		b.Run(fmt.Sprintf("drop=%.1f", drop), func(b *testing.B) {
			in := benchInstance(35)
			slots := 0
			for i := 0; i < b.N; i++ {
				res, err := core.Init(context.Background(), in, core.InitConfig{Channel: sim.Config{Seed: int64(i), DropProb: drop, Pool: pool}})
				if err != nil {
					b.Fatal(err)
				}
				slots = res.SlotsUsed
			}
			b.ReportMetric(float64(slots), "slots")
		})
	}
}

// BenchmarkJoin measures attaching 4 late nodes to an existing tree.
func BenchmarkJoin(b *testing.B) {
	pool := cpuPool(b)
	in := benchInstance(36)
	base := make([]int, benchN-4)
	joiners := make([]int, 4)
	for i := range base {
		base[i] = i
	}
	for i := range joiners {
		joiners[i] = benchN - 4 + i
	}
	ires, err := core.Init(context.Background(), in, core.InitConfig{Channel: sim.Config{Seed: 1, Pool: pool}, Participants: base})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Join(context.Background(), in, ires.Tree, joiners, core.InitConfig{Channel: sim.Config{Seed: int64(i), Pool: pool}}); err != nil {
			b.Fatal(err)
		}
	}
}

// repairBenchTree is the n = 4096 deployment the first-fit benchmarks
// share: JitteredGrid(seed 1, spacing 2.6, jitter 0.8) at α = 3, and its
// Init tree under protocol seed 3.
func repairBenchTree(b *testing.B, pool *sim.Pool) (*sinr.Instance, *tree.BiTree) {
	b.Helper()
	in := sinr.MustInstance(workload.JitteredGrid(rand.New(rand.NewSource(1)), 4096, 2.6, 0.8), sinr.DefaultParams())
	ires, err := core.Init(context.Background(), in, core.InitConfig{Channel: sim.Config{Seed: 3, Pool: pool}})
	if err != nil {
		b.Fatal(err)
	}
	return in, ires.Tree
}

// BenchmarkRepair measures core.Repair at n = 4096 after k ∈ {1, 8, 64}
// node failures, three failure draws (seeds) each: the join protocol
// re-attaches the orphans, then Restamp rebuilds the whole schedule, which
// dominates. It reports the repaired schedule length.
func BenchmarkRepair(b *testing.B) {
	pool := cpuPool(b)
	in, bt := repairBenchTree(b, pool)
	for _, k := range []int{1, 8, 64} {
		for _, seed := range []int64{1, 2, 3} {
			rng := rand.New(rand.NewSource(seed))
			failed := make([]int, 0, k)
			for _, i := range rng.Perm(len(bt.Nodes))[:k+1] {
				if v := bt.Nodes[i]; v != bt.Root && len(failed) < k {
					failed = append(failed, v)
				}
			}
			b.Run(fmt.Sprintf("k=%d/seed=%d", k, seed), func(b *testing.B) {
				slots := 0
				for i := 0; i < b.N; i++ {
					res, err := core.Repair(context.Background(), in, bt, failed, core.InitConfig{Channel: sim.Config{Seed: seed, Pool: pool}})
					if err != nil {
						b.Fatal(err)
					}
					slots = res.ScheduleLength
				}
				b.ReportMetric(float64(slots), "slots")
			})
		}
	}
}

// BenchmarkMeanScheduleLength measures the centralized first-fit schedule
// of the n = 4096 Init tree's links under noise-safe mean power (E6's and
// E10's baseline), and reports its length.
func BenchmarkMeanScheduleLength(b *testing.B) {
	in, bt := repairBenchTree(b, cpuPool(b))
	slots := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slots = core.MeanScheduleLength(in, bt)
	}
	b.ReportMetric(float64(slots), "slots")
}

// --- micro-benchmarks of the substrates ---

// BenchmarkChannelSlot measures the raw physics cost of one measured
// affectance (Distr-Cap's per-slot reading at a receiver) with a quarter of
// the nodes transmitting, swept over benchSizes.
func BenchmarkChannelSlot(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			in := benchInstanceN(20, n)
			txs := make([]sinr.Tx, 0, n/4)
			for i := 0; i < n/4; i++ {
				txs = append(txs, sinr.Tx{Sender: i, Power: in.Params().SafePower(4)})
			}
			l := sinr.Link{From: n - 2, To: n - 1}
			pu := in.Params().SafePower(in.Length(l))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				in.MeasuredAffectance(txs, l, pu)
			}
		})
	}
}

// BenchmarkPowerSolve measures the Foschini–Miljanic solver on a selected
// feasible set.
func BenchmarkPowerSolve(b *testing.B) {
	pool := cpuPool(b)
	in := benchInstance(21)
	ires, err := core.Init(context.Background(), in, core.InitConfig{Channel: sim.Config{Seed: 1, Pool: pool}})
	if err != nil {
		b.Fatal(err)
	}
	sub := core.LowDegreeSubset(ires.Tree, 0)
	links := make([]sinr.Link, len(sub))
	for i, tl := range sub {
		links[i] = tl.L
	}
	sel := core.CentralCapacity(in, links, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := power.Solve(in, sel); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMSTBaseline measures the centralized MST baseline construction.
func BenchmarkMSTBaseline(b *testing.B) {
	in := benchInstance(22)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		geom.MST(in.Points())
	}
}
