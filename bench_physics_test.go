package sinrconn

// BenchmarkSlotPhysics measures the raw cost of one simulator slot — the
// global hot path every protocol in this repository runs on — at production
// scales. A quarter of the nodes transmit each slot and the rest listen, so
// each Step resolves ~n·n/4 (sender, listener) interactions through the SINR
// physics. Headline numbers (pre- and post-kernel) are recorded in
// BENCH_physics.json; see DESIGN.md §Physics kernel.
//
// The companion TestSlotLoopZeroAlloc (internal/sim) asserts the steady-state
// slot loop performs zero allocations per Step.

import (
	"fmt"
	"math/rand"
	"testing"

	"sinrconn/internal/sim"
	"sinrconn/internal/sinr"
	"sinrconn/internal/workload"
)

// physProto is a fixed-role protocol used to exercise the channel physics:
// transmitters broadcast every slot, everyone else listens. Step performs no
// allocations, so engine-side allocations are directly observable.
type physProto struct {
	id       int
	transmit bool
	power    float64
}

func (p *physProto) Step(slot int, inbox []sim.Delivery) sim.Action {
	if p.transmit {
		return sim.Transmit(p.power, sim.Message{Kind: sim.KindBroadcast, From: p.id, To: sim.NoAddressee})
	}
	return sim.Listen()
}

// cpuPool returns a NumCPU-worker pool that tb closes when it ends: the
// root package's benchmarks and large-scale gates run their engines on
// one, as a session's engines run on its pool.
func cpuPool(tb testing.TB) *sim.Pool {
	p := sim.NewPool(0)
	tb.Cleanup(p.Close)
	return p
}

// physEngine builds the fixed-role physics engine on pool (nil runs every
// stage inline).
func physEngine(b *testing.B, n int, pool *sim.Pool) *sim.Engine {
	b.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	in := sinr.MustInstance(workload.UniformDensity(rng, n, 0.15), sinr.DefaultParams())
	power := in.Params().SafePower(4)
	procs := make([]sim.Protocol, n)
	for i := 0; i < n; i++ {
		procs[i] = &physProto{id: i, transmit: i%4 == 0, power: power}
	}
	eng, err := sim.NewEngine(in, procs, sim.Config{Pool: pool})
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// BenchmarkSlotPhysics reports ns per engine slot for n ∈ {256, 1024, 4096}.
func BenchmarkSlotPhysics(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			eng := physEngine(b, n, cpuPool(b))
			// Warm to steady state: inbox buffers reach final capacity and
			// the worker pool (if any) is spun up before measurement.
			eng.Run(3)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Step()
			}
			if eng.Stats().Deliveries < 0 {
				b.Fatal("impossible")
			}
		})
	}
}

// BenchmarkSlotPhysicsSerial runs without a pool to expose the single-core cost of
// the physics kernel itself, independent of parallel speedup.
func BenchmarkSlotPhysicsSerial(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			eng := physEngine(b, n, nil)
			eng.Run(3)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Step()
			}
		})
	}
}
