package sinrconn

// BenchmarkQuadtree measures one simulator slot under the hierarchical
// (quadtree) far-field engine against the exact kernel, up to n = 1048576
// — far past the gain-table memory bound (n ≈ 5792). Half the nodes
// transmit each slot (the densest decode load), so a slot at n = 262144
// resolves ~1.7·10¹⁰ exact pair interactions; the quadtree walks ~10³–10⁴
// pyramid nodes per listener instead, opening only what each listener's ε
// budget requires. The sweep deliberately includes ε = 0.1, the tight-ε
// regime where a single global near ring would cover most of the instance.
//
// Headline numbers live in BENCH_quadtree.json; TestQuadtreeBigSlot pins
// the n = 262144 acceptance (slot completes, zero allocations, plan +
// scratch inside the 256 MiB instance bound); the adaptive calibration
// comes from BenchmarkAdaptiveCrossover.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"sinrconn/internal/oracle"
	"sinrconn/internal/sim"
	"sinrconn/internal/sinr"
	"sinrconn/internal/workload"
)

var quadBenchEps = []float64{0.1, 0.5, 1.0, 2.5}

// farBenchSpacing reproduces the 0.15 points-per-unit-area density the
// physics benchmarks use (1/2.6² ≈ 0.148), on the O(n) jittered grid so
// instance generation stays negligible at n = 1048576.
const farBenchSpacing = 2.6

func farBenchInstance(n int) *sinr.Instance {
	rng := rand.New(rand.NewSource(int64(n)))
	pts := workload.JitteredGrid(rng, n, farBenchSpacing, 0.8)
	return sinr.MustInstance(pts, sinr.DefaultParams())
}

// farGuard counts how a forced-far engine resolved its slots, so a
// benchmark or test of the quadtree side fails instead of silently timing
// exact decode.
type farGuard struct{ far, exact int }

// config is the engine config for plan ff (nil = exact) on a NumCPU pool
// that tb closes: with a plan, every non-empty slot goes through it
// (AdaptiveCrossover 1) and g counts the modes the slots took.
func (g *farGuard) config(tb testing.TB, ff *sinr.QuadTree) sim.Config {
	if ff == nil {
		return sim.Config{Pool: cpuPool(tb)}
	}
	return sim.Config{Pool: cpuPool(tb), Far: ff, AdaptiveCrossover: 1, Observer: func(ev sim.SlotEvent) {
		if ev.Far {
			g.far++
		} else if ev.Senders > 0 {
			g.exact++
		}
	}}
}

// check fails tb unless a forced-far engine resolved some slot far and no
// non-empty slot exact.
func (g *farGuard) check(tb testing.TB, ff *sinr.QuadTree) {
	tb.Helper()
	if ff != nil && (g.far == 0 || g.exact != 0) {
		tb.Fatalf("forced-far engine resolved %d slots far and %d non-empty slots exact", g.far, g.exact)
	}
}

// quadBenchEngine builds a fixed-role engine (even ids transmit) over the
// shared far-bench geometry with the given plan (nil = exact), every slot
// forced through a plan; g counts the slots' modes.
func quadBenchEngine(b *testing.B, in *sinr.Instance, ff *sinr.QuadTree, g *farGuard) *sim.Engine {
	b.Helper()
	n := in.Len()
	power := in.Params().SafePower(4)
	procs := make([]sim.Protocol, n)
	for i := 0; i < n; i++ {
		procs[i] = &physProto{id: i, transmit: i%2 == 0, power: power}
	}
	eng, err := sim.NewEngine(in, procs, g.config(b, ff))
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

func benchSlot(b *testing.B, in *sinr.Instance, ff *sinr.QuadTree) {
	var g farGuard
	eng := quadBenchEngine(b, in, ff, &g)
	// Two warm-up slots, not one: delivery inboxes are double-buffered, so
	// both buffers must see a slot before the steady state is allocation
	// free.
	eng.Run(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
	b.StopTimer()
	g.check(b, ff)
	if eng.Stats().Deliveries < 0 {
		b.Fatal("impossible")
	}
}

// BenchmarkQuadtree sweeps n × ε with an exact baseline (exact is omitted at n = 262144, where a single measured slot would run minutes;
// the n = 65536 ratio already pins the trend). At n = 1048576 the sweep
// keeps ε ≥ 0.5 — a tight-ε (0.1) million-node slot opens most of the
// pyramid per listener and runs minutes on one CPU; n = 262144 pins that
// regime. -short keeps the smoke run to n ≤ 16384.
func BenchmarkQuadtree(b *testing.B) {
	for _, n := range []int{4096, 16384, 65536, 262144, 1048576} {
		if testing.Short() && n > 16384 {
			continue
		}
		in := farBenchInstance(n)
		if n <= 65536 {
			b.Run(fmt.Sprintf("n=%d/exact", n), func(b *testing.B) {
				benchSlot(b, in, nil)
			})
		}
		for _, eps := range quadBenchEps {
			if n == 1048576 && eps < 0.5 {
				continue
			}
			b.Run(fmt.Sprintf("n=%d/eps=%v", n, eps), func(b *testing.B) {
				q, err := in.QuadTree(eps)
				if err != nil {
					b.Fatal(err)
				}
				benchSlot(b, in, q)
			})
		}
	}
}

// senderCountProto transmits on every stride-th id, so a slot carries
// n/stride transmitters spread uniformly over the instance (ids are
// row-major on the bench grid; a contiguous id prefix would band the
// senders into a corner, which is not the workload the crossover models).
type senderCountProto struct {
	id, stride int
	power      float64
}

func (p *senderCountProto) Step(slot int, inbox []sim.Delivery) sim.Action {
	if p.id%p.stride == 0 {
		return sim.Transmit(p.power, sim.Message{Kind: sim.KindBroadcast, From: p.id, To: sim.NoAddressee})
	}
	return sim.Listen()
}

// BenchmarkAdaptiveCrossover calibrates sim.DefaultAdaptiveCrossover: per
// slot, exact resolution costs |listeners|·S direct gains while the
// quadtree pays its accumulation plus a per-listener walk that must still
// reach each occupied region, so the curves cross in S (the sender count)
// only weakly dependently on n. The recorded crossing on this geometry —
// between S = 512 and S = 1024 at both ε = 0.5 and ε = 2.5 — is where the
// 768 default comes from (BENCH_quadtree.json).
func BenchmarkAdaptiveCrossover(b *testing.B) {
	n := 65536
	if testing.Short() {
		n = 16384
	}
	in := farBenchInstance(n)
	power := in.Params().SafePower(4)
	for _, senders := range []int{64, 256, 512, 1024, 2048, 4096, 8192} {
		procs := make([]sim.Protocol, n)
		for i := 0; i < n; i++ {
			procs[i] = &senderCountProto{id: i, stride: n / senders, power: power}
		}
		run := func(b *testing.B, ff *sinr.QuadTree) {
			var g farGuard
			eng, err := sim.NewEngine(in, procs, g.config(b, ff))
			if err != nil {
				b.Fatal(err)
			}
			eng.Run(2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Step()
			}
			b.StopTimer()
			g.check(b, ff)
		}
		b.Run(fmt.Sprintf("s=%d/exact", senders), func(b *testing.B) { run(b, nil) })
		for _, eps := range []float64{0.5, 2.5} {
			b.Run(fmt.Sprintf("s=%d/eps=%v", senders, eps), func(b *testing.B) {
				q, err := in.QuadTree(eps)
				if err != nil {
					b.Fatal(err)
				}
				run(b, q)
			})
		}
	}
}

// TestQuadtreeMeasuredError measures the actual approximation error of the
// quadtree benchmark scenario, oracle-verified: at sampled listeners the
// hierarchical channel resolution (winner SINR, Resolve path — exactly
// what BenchmarkQuadtree times) is compared against the naive exact
// physics. The measured maximum must stay within the certified bound; the
// observed values (orders of magnitude below it — the power-weighted
// centroid cancels the first-order term) are recorded in
// BENCH_quadtree.json.
func TestQuadtreeMeasuredError(t *testing.T) {
	n := 16384
	if testing.Short() {
		n = 4096
	}
	in := farBenchInstance(n)
	pts := in.Points()
	p := in.Params()
	power := p.SafePower(4)
	txs := make([]sinr.Tx, 0, n/2)
	for i := 0; i < n; i += 2 {
		txs = append(txs, sinr.Tx{Sender: i, Power: power})
	}
	rng := rand.New(rand.NewSource(9))
	for _, eps := range []float64{0.1, 0.5, 1.0, 2.5} {
		q, err := in.QuadTree(eps)
		if err != nil {
			t.Fatal(err)
		}
		sc := q.NewScratch()
		sc.Accumulate(txs)
		maxErr := 0.0
		for probe := 0; probe < 60; probe++ {
			v := rng.Intn(n)/2*2 + 1 // listeners are the odd indices
			if v >= n {
				continue
			}
			best, bestRP, total, sat := sc.Resolve(v)
			if sat || best < 0 {
				continue
			}
			exactTotal, exactBestRP := 0.0, 0.0
			for _, tx := range txs {
				rp := tx.Power / oracle.PathLoss(oracle.Dist(pts, tx.Sender, v), p.Alpha)
				exactTotal += rp
				if rp > exactBestRP {
					exactBestRP = rp
				}
			}
			far := bestRP / (p.Noise + (total - bestRP))
			exact := exactBestRP / (p.Noise + (exactTotal - exactBestRP))
			if e := math.Abs(exact-far) / far; e > maxErr {
				maxErr = e
			}
		}
		if ce := q.CertifiedMaxRelError(); maxErr > ce {
			t.Fatalf("eps %v: measured max SINR error %v exceeds certified bound %v", eps, maxErr, ce)
		}
		t.Logf("n=%d eps=%v (L=%d, θ=%.4f): measured max relative SINR error %.2e",
			n, eps, q.Levels(), q.Theta(), maxErr)
	}
}

// quadFootprint is the deterministic memory accounting for one plan plus
// one engine scratch: the node→leaf assignment on the plan side; pyramid
// accumulators, child masks, leaf bucketing (streamed coordinates
// included) and marks on the scratch side. Slices carry exact element
// sizes; struct/backing-array overhead is noise at this scale.
func quadFootprint(q *sinr.QuadTree, n int) int {
	planBytes := 4 * n                    // leafOf
	scratchBytes := q.Nodes()*(4+4*8+1) + // stamp + mass/cenX/cenY/pmax + kids
		q.Leaves()*8 + // start/fill
		8*n + // order + senderMark
		24*n + // sx/sy/sp streamed leaf coordinates
		q.Nodes()*4 // active-list capacity upper bound
	return planBytes + scratchBytes
}

// TestQuadtreeBigSlot is the n = 262144 acceptance gate: a dense far-field
// slot completes with the plan and per-engine scratch inside the 256 MiB
// instance bound (the exact path's gain table would need 512 GiB) and the
// slot loop allocation-free. Skipped under -short — the slot is real work.
func TestQuadtreeBigSlot(t *testing.T) {
	if testing.Short() {
		t.Skip("n=262144 slot is seconds of single-CPU work")
	}
	const n = 262144
	in := farBenchInstance(n)
	q, err := in.QuadTree(2.5)
	if err != nil {
		t.Fatal(err)
	}
	if total := quadFootprint(q, n); total > 256<<20 {
		t.Fatalf("plan+scratch footprint %d MiB exceeds the 256 MiB instance bound", total>>20)
	}
	power := in.Params().SafePower(4)
	procs := make([]sim.Protocol, n)
	for i := 0; i < n; i++ {
		procs[i] = &physProto{id: i, transmit: i%2 == 0, power: power}
	}
	var g farGuard
	eng, err := sim.NewEngine(in, procs, g.config(t, q))
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(1) // warm the inbox/txs buffers
	if allocs := testing.AllocsPerRun(1, func() { eng.Step() }); allocs != 0 {
		t.Fatalf("n=262144 far slot allocates %.1f times/op, want 0", allocs)
	}
	g.check(t, q)
	if eng.Stats().Deliveries == 0 {
		t.Fatal("dense slot delivered nothing — engine not exercising the channel")
	}
}

// TestQuadtreeMillionSlot is the n = 2²⁰ acceptance gate of the
// million-node slot engine (DESIGN.md §12): a dense far slot — 524288
// senders folded into the pyramid, 524288 listeners each walking it —
// completes with zero allocations and delivers, and the plan + scratch
// footprint
// stays inside the 512 MiB bound the exact path could never meet (its
// gain table would need 8 TiB). The slot's wall time is logged, not
// gated: it measures the machine as much as the engine, and the
// benchmark (BENCH_quadtree.json records ~4 s single-CPU at ε = 2.5) is
// where speed is judged. -short drops to n = 262144.
func TestQuadtreeMillionSlot(t *testing.T) {
	n := 1 << 20
	if testing.Short() {
		n = 262144
	}
	in := farBenchInstance(n)
	q, err := in.QuadTree(2.5)
	if err != nil {
		t.Fatal(err)
	}
	if total := quadFootprint(q, n); total > 512<<20 {
		t.Fatalf("plan+scratch footprint %d MiB exceeds the 512 MiB bound", total>>20)
	}
	power := in.Params().SafePower(4)
	procs := make([]sim.Protocol, n)
	for i := 0; i < n; i++ {
		procs[i] = &physProto{id: i, transmit: i%2 == 0, power: power}
	}
	var g farGuard
	eng, err := sim.NewEngine(in, procs, g.config(t, q))
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(2) // both inbox buffers warm → steady state is allocation-free
	start := time.Now()
	if allocs := testing.AllocsPerRun(1, func() { eng.Step() }); allocs != 0 {
		t.Fatalf("n=%d far slot allocates %.1f times/op, want 0", n, allocs)
	}
	// AllocsPerRun ran the slot twice (one warm-up inside the helper).
	t.Logf("n=%d dense far slot: %v", n, time.Since(start)/2)
	g.check(t, q)
	if eng.Stats().Deliveries == 0 {
		t.Fatal("dense slot delivered nothing — engine not exercising the channel")
	}
}
