package sim

import (
	"math/rand"
	"testing"

	"sinrconn/internal/geom"
	"sinrconn/internal/sinr"
	"sinrconn/internal/workload"
)

// fixedProto transmits every slot (transmitters) or listens (everyone else)
// without allocating, so engine-side allocations are directly observable.
type fixedProto struct {
	id       int
	transmit bool
	power    float64
}

func (p *fixedProto) Step(slot int, inbox []Delivery) Action {
	if p.transmit {
		return Transmit(p.power, Message{Kind: KindBroadcast, From: p.id, To: NoAddressee})
	}
	return Listen()
}

// allocTestEngine builds the alloc/determinism engine; sparse leaves every
// third protocol nil (a node idle forever).
func allocTestEngine(t *testing.T, n, workers int, drop float64, sparse bool) *Engine {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{
			X: float64(i%16)*2 + rng.Float64(),
			Y: float64(i/16)*2 + rng.Float64(),
		}
	}
	in := sinr.MustInstance(pts, sinr.DefaultParams())
	power := in.Params().SafePower(4)
	procs := make([]Protocol, n)
	for i := 0; i < n; i++ {
		if sparse && i%3 == 2 {
			continue
		}
		procs[i] = &fixedProto{id: i, transmit: i%4 == 0, power: power}
	}
	e, err := NewEngine(in, procs, Config{Workers: workers, DropProb: drop, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestSlotLoopZeroAlloc asserts the steady-state slot loop performs zero
// allocations per Step, in both the serial path and the worker-pool path
// (and with drop injection active, which exercises dropCoin), over a full
// and a sparse (nil-protocol) node set.
func TestSlotLoopZeroAlloc(t *testing.T) {
	cases := []struct {
		name    string
		workers int
		drop    float64
		sparse  bool
	}{
		{"serial", 1, 0, false},
		{"pool", 4, 0, false},
		{"serial_drop", 1, 0.2, false},
		{"sparse_serial", 1, 0, true},
		{"sparse_pool", 4, 0.2, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := allocTestEngine(t, 128, tc.workers, tc.drop, tc.sparse)
			defer e.Close()
			// Warm to steady state: inbox buffers reach capacity, the pool
			// (if any) finishes spinning up.
			e.Run(8)
			allocs := testing.AllocsPerRun(50, func() { e.Step() })
			if allocs != 0 {
				t.Fatalf("steady-state Step allocates %.1f times/op, want 0", allocs)
			}
		})
	}
}

// TestPoolMatchesSerial asserts worker-pool execution is bit-identical to
// serial execution — the determinism-for-a-fixed-Seed contract — over a
// full and a sparse (nil-protocol) node set.
func TestPoolMatchesSerial(t *testing.T) {
	for _, sparse := range []bool{false, true} {
		run := func(workers int) Stats {
			e := allocTestEngine(t, 128, workers, 0.15, sparse)
			defer e.Close()
			e.Run(40)
			return e.Stats()
		}
		serial, pooled := run(1), run(4)
		if serial != pooled {
			t.Fatalf("sparse=%v: worker count changed results: serial %+v pooled %+v", sparse, serial, pooled)
		}
	}
}

// idleProto idles in every slot.
type idleProto struct{}

func (idleProto) Step(int, []Delivery) Action { return Idle() }

// TestNilProtocolMatchesIdle pins the engine's contract for nil protocol
// entries: an engine with every third node nil produces the same Stats and
// the same inbox, delivery for delivery, at every live node as one whose
// nodes there run an always-Idle protocol — exact and far-field, serial and
// pooled, with drop injection.
func TestNilProtocolMatchesIdle(t *testing.T) {
	const n, slots = 192, 14
	pts := workload.JitteredGrid(rand.New(rand.NewSource(17)), n, 3, 0.8)
	in := sinr.MustInstance(pts, sinr.DefaultParams())
	q, err := in.QuadTree(0.5)
	if err != nil {
		t.Fatal(err)
	}
	power := in.Params().SafePower(4)
	run := func(cfg Config, nilIdle bool) ([][]Delivery, Stats) {
		procs := make([]Protocol, n)
		recs := make([]*recordProto, n)
		for i := range procs {
			var inner Protocol = &burstProto{id: i, power: power}
			if i%3 == 2 {
				if nilIdle {
					continue
				}
				inner = idleProto{}
			}
			recs[i] = &recordProto{inner: inner}
			procs[i] = recs[i]
		}
		e := mustEngine(t, in, procs, cfg)
		defer e.Close()
		e.Run(slots)
		got := make([][]Delivery, n)
		for i, r := range recs {
			if r != nil {
				got[i] = r.got
			}
		}
		return got, e.Stats()
	}
	for _, cfg := range []Config{
		{Workers: 1, DropProb: 0.1, Seed: 5},
		{Workers: 4, DropProb: 0.1, Seed: 5},
		{Workers: 1, FarField: q},
		{Workers: 4, FarField: q},
	} {
		idleGot, idleStats := run(cfg, false)
		nilGot, nilStats := run(cfg, true)
		for i := 2; i < n; i += 3 {
			if len(idleGot[i]) != 0 {
				t.Fatalf("workers=%d far=%v: idle node %d received %d deliveries", cfg.Workers, cfg.FarField != nil, i, len(idleGot[i]))
			}
		}
		if idleStats.Deliveries == 0 {
			t.Fatalf("workers=%d far=%v: nothing delivered", cfg.Workers, cfg.FarField != nil)
		}
		assertRunsEqual(t, "nil vs always-Idle", idleGot, nilGot, idleStats, nilStats)
	}
}
