package sim

// Engine-level drift gates for the PR-9 far-field machinery: listener
// batching (run-sliced ResolveBatch across workers) and the sharded
// parallel Accumulate must both be invisible in the outputs — every
// Delivery and every Stats field bit-identical to the per-listener /
// serial paths they replace. These complement the kernel-level gates in
// internal/sinr by exercising the real dispatch: run shearing at chunk
// boundaries, worker-strided shard assignment, and the f32 mirror slot.

import (
	"math/rand"
	"testing"

	"sinrconn/internal/sinr"
	"sinrconn/internal/workload"
)

// runBurst runs the bursty quadtree workload for slots slots and returns
// the per-node delivery logs plus final stats.
func runBurst(t *testing.T, n, slots int, cfg Config) ([][]Delivery, Stats) {
	t.Helper()
	e, recs := adaptiveEngine(t, n, true, cfg)
	defer e.Close()
	e.Run(slots)
	got := make([][]Delivery, len(recs))
	for i, r := range recs {
		got[i] = r.got
	}
	return got, e.Stats()
}

// assertRunsEqual compares two engine runs delivery-by-delivery.
func assertRunsEqual(t *testing.T, label string, aGot, bGot [][]Delivery, aStats, bStats Stats) {
	t.Helper()
	if aStats != bStats {
		t.Fatalf("%s: stats diverged: %+v vs %+v", label, aStats, bStats)
	}
	for i := range aGot {
		if len(aGot[i]) != len(bGot[i]) {
			t.Fatalf("%s: node %d: %d vs %d deliveries", label, i, len(aGot[i]), len(bGot[i]))
		}
		for k := range aGot[i] {
			if aGot[i][k] != bGot[i][k] {
				t.Fatalf("%s: node %d delivery %d: %+v vs %+v", label, i, k, aGot[i][k], bGot[i][k])
			}
		}
	}
}

// TestEngineFarBatchDriftGate: a run with listener batching (the default
// far decode path) must be bit-identical to NoFarBatch per-listener
// resolution, serial and pooled. The pooled case additionally shears
// predicate-class runs at worker chunk boundaries, covering the
// run-splitting invariant end to end.
func TestEngineFarBatchDriftGate(t *testing.T) {
	const n, slots = 256, 14
	for _, workers := range []int{1, 4} {
		bGot, bStats := runBurst(t, n, slots, Config{Workers: workers})
		sGot, sStats := runBurst(t, n, slots, Config{Workers: workers, NoFarBatch: true})
		assertRunsEqual(t, "batched vs per-listener", bGot, sGot, bStats, sStats)
	}
}

// TestEngineShardedAccumDriftGate: forcing the sharded parallel
// Accumulate at test scale (threshold override) must leave every output
// bit-identical to the serial accumulation — across worker counts, with
// and without adaptive selection in the loop.
func TestEngineShardedAccumDriftGate(t *testing.T) {
	const n, slots = 256, 14
	defer func(old int) { shardedAccumMinTxs = old }(shardedAccumMinTxs)

	for _, adaptive := range []bool{false, true} {
		cfg := func(workers int) Config {
			c := Config{Workers: workers}
			if adaptive {
				c.Adaptive = true
				c.AdaptiveCrossover = 64
			}
			return c
		}
		// Serial reference: threshold high, sharding never fires.
		shardedAccumMinTxs = 1 << 30
		sGot, sStats := runBurst(t, n, slots, cfg(4))
		// Sharded: every far slot accumulates through the shard path.
		shardedAccumMinTxs = 1
		for _, workers := range []int{2, 4, 8} {
			pGot, pStats := runBurst(t, n, slots, cfg(workers))
			assertRunsEqual(t, "sharded vs serial accumulate", sGot, pGot, sStats, pStats)
		}
	}
}

// TestEngineFar32DriftGate: the float32 far slot must ride the same
// batching and sharding machinery without drifting from its own serial,
// per-listener reference (f32 vs f64 accuracy is certified separately in
// internal/sinr — here the claim is determinism of the f32 path itself).
func TestEngineFar32DriftGate(t *testing.T) {
	const n, slots = 256, 14
	defer func(old int) { shardedAccumMinTxs = old }(shardedAccumMinTxs)

	run := func(workers int, noBatch bool) ([][]Delivery, Stats) {
		pts := workload.JitteredGrid(rand.New(rand.NewSource(17)), n, 3, 0.8)
		in := sinr.MustInstance(pts, sinr.DefaultParams())
		power := in.Params().SafePower(4)
		procs := make([]Protocol, n)
		recs := make([]*recordProto, n)
		for i := 0; i < n; i++ {
			recs[i] = &recordProto{inner: &burstProto{id: i, power: power}}
			procs[i] = recs[i]
		}
		q, err := in.QuadTree(0.5)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(in, procs, Config{Workers: workers, NoFarBatch: noBatch, Far: q.Prec32()})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		e.Run(slots)
		got := make([][]Delivery, n)
		for i, r := range recs {
			got[i] = r.got
		}
		return got, e.Stats()
	}

	shardedAccumMinTxs = 1 << 30
	refGot, refStats := run(1, true)
	shardedAccumMinTxs = 1
	for _, workers := range []int{1, 4} {
		got, stats := run(workers, false)
		assertRunsEqual(t, "f32 sharded vs f32 serial", refGot, got, refStats, stats)
	}
}
