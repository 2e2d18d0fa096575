package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"sinrconn/internal/geom"
	"sinrconn/internal/sinr"
	"sinrconn/internal/workload"
)

// fixedProto transmits every slot (transmitters) or listens (everyone else)
// without allocating, so engine-side allocations are directly observable.
// A positive leaveAt makes the node leave in that slot.
type fixedProto struct {
	id       int
	transmit bool
	power    float64
	leaveAt  int
}

func (p *fixedProto) Step(slot int, inbox []Delivery) Action {
	if p.leaveAt > 0 && slot >= p.leaveAt {
		return Leave()
	}
	if p.transmit {
		return Transmit(p.power, Message{Kind: KindBroadcast, From: p.id, To: NoAddressee})
	}
	return Listen()
}

// allocTestEngine builds the alloc/determinism engine; sparse leaves every
// third protocol nil (a node idle forever), far resolves every slot through
// a quadtree plan.
func allocTestEngine(t *testing.T, n, workers int, drop float64, sparse, far bool) *Engine {
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
	cfg := Config{Workers: workers, DropProb: drop, Seed: 3}
	if far {
		q, err := in.QuadTree(0.5)
		if err != nil {
			t.Fatal(err)
		}
		cfg.FarField = q
	}
	e, err := NewEngine(in, procs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestSlotLoopZeroAlloc asserts the steady-state slot loop performs zero
// allocations per Step, in both the serial path and the worker-pool path
// (and with drop injection active, which exercises dropCoin), over a full
// and a sparse (nil-protocol) node set, while nodes leave, and under a
// listen range whose listener gate runs in every slot, exact and far-field.
func TestSlotLoopZeroAlloc(t *testing.T) {
	defer func(old int) { listenGateMinWork = old }(listenGateMinWork)
	listenGateMinWork = 0
	cases := []struct {
		name      string
		workers   int
		drop      float64
		sparse    bool
		departing bool
		ranged    bool
		far       bool
	}{
		{"serial", 1, 0, false, false, false, false},
		{"pool", 4, 0, false, false, false, false},
		{"serial_drop", 1, 0.2, false, false, false, false},
		{"sparse_serial", 1, 0, true, false, false, false},
		{"sparse_pool", 4, 0.2, true, false, false, false},
		{"departing_serial", 1, 0, false, true, false, false},
		{"departing_pool", 4, 0.2, true, true, false, false},
		{"ranged_serial", 1, 0.2, false, false, true, false},
		{"ranged_pool", 4, 0, true, true, true, false},
		{"ranged_far", 1, 0.2, false, false, true, true},
		{"ranged_far_pool", 4, 0, false, true, true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := allocTestEngine(t, 128, tc.workers, tc.drop, tc.sparse, tc.far)
			defer e.Close()
			if tc.ranged {
				// Senders sit on every fourth column of a lattice of
				// spacing about 2, so range 3 gates some listeners out.
				e.SetListenRange(3)
				if !e.cells.ok {
					t.Fatal("cell index unusable")
				}
			}
			if tc.departing {
				// Every odd node leaves at some slot of the measured
				// window (slots 8..58).
				for i, p := range e.procs {
					if fp, ok := p.(*fixedProto); ok && i%2 == 1 {
						fp.leaveAt = 9 + i%48
					}
				}
			}
			// Warm to steady state: inbox buffers reach capacity, the pool
			// (if any) finishes spinning up.
			e.Run(8)
			live := e.Live()
			allocs := testing.AllocsPerRun(50, func() { e.Step() })
			if allocs != 0 {
				t.Fatalf("steady-state Step allocates %.1f times/op, want 0", allocs)
			}
			if left := live - e.Live(); tc.departing != (left > 0) {
				t.Fatalf("%d nodes left during the measured slots", left)
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
			e := allocTestEngine(t, 128, workers, 0.15, sparse, false)
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

// departProto acts at random, from a hash of (slot, id), until slot leave;
// from then on it returns Leave or, with idle set, Idle forever. A negative
// leave never leaves.
type departProto struct {
	id, leave int
	idle      bool
	power     float64
}

func (p *departProto) Step(slot int, inbox []Delivery) Action {
	if p.leave >= 0 && slot >= p.leave {
		if p.idle {
			return Idle()
		}
		return Leave()
	}
	switch c := dropCoin(11, slot, p.id); {
	case c < 0.3:
		return Transmit(p.power, Message{Kind: KindBroadcast, From: p.id, To: NoAddressee, Tag: slot})
	case c < 0.9:
		return Listen()
	}
	return Idle()
}

// TestLeaveMatchesIdle pins the engine's contract for Leave: protocols
// that leave at random slots produce the same Stats and the same inbox,
// delivery for delivery, at every node as the same protocols returning
// Idle forever instead — exact and adaptive far-field, serial and pooled,
// with drop injection.
func TestLeaveMatchesIdle(t *testing.T) {
	const n, slots = 192, 24
	pts := workload.JitteredGrid(rand.New(rand.NewSource(17)), n, 3, 0.8)
	in := sinr.MustInstance(pts, sinr.DefaultParams())
	q, err := in.QuadTree(0.5)
	if err != nil {
		t.Fatal(err)
	}
	power := in.Params().SafePower(4)
	stay := 0
	leaveAt := make([]int, n)
	for i := range leaveAt {
		leaveAt[i] = -1
		if i%3 != 0 {
			leaveAt[i] = int(dropCoin(23, 0, i) * slots)
		} else {
			stay++
		}
	}
	run := func(cfg Config, idle bool) ([][]Delivery, Stats, int, int) {
		procs := make([]Protocol, n)
		recs := make([]*recordProto, n)
		for i := range procs {
			recs[i] = &recordProto{inner: &departProto{id: i, leave: leaveAt[i], idle: idle, power: power}}
			procs[i] = recs[i]
		}
		far := 0
		cfg.Observer = func(ev SlotEvent) {
			if ev.Far {
				far++
			}
		}
		e := mustEngine(t, in, procs, cfg)
		defer e.Close()
		e.Run(slots)
		got := make([][]Delivery, n)
		for i, r := range recs {
			got[i] = r.got
		}
		return got, e.Stats(), e.Live(), far
	}
	for _, cfg := range []Config{
		{Workers: 1, DropProb: 0.1, Seed: 5},
		{Workers: 4, DropProb: 0.1, Seed: 5},
		{Workers: 1, FarField: q, Adaptive: true, AdaptiveCrossover: 24},
		{Workers: 4, FarField: q, Adaptive: true, AdaptiveCrossover: 24, DropProb: 0.1, Seed: 5},
	} {
		label := fmt.Sprintf("workers=%d far=%v", cfg.Workers, cfg.FarField != nil)
		idleGot, idleStats, idleLive, idleFar := run(cfg, true)
		leaveGot, leaveStats, leaveLive, leaveFar := run(cfg, false)
		if idleStats.Deliveries == 0 {
			t.Fatalf("%s: nothing delivered", label)
		}
		if idleLive != n || leaveLive != stay {
			t.Fatalf("%s: %d and %d nodes live at the end, want %d and %d", label, idleLive, leaveLive, n, stay)
		}
		if idleFar != leaveFar {
			t.Fatalf("%s: %d vs %d far slots", label, idleFar, leaveFar)
		}
		if cfg.FarField != nil && (leaveFar == 0 || leaveFar == slots) {
			t.Fatalf("%s: %d of %d slots far, want both modes", label, leaveFar, slots)
		}
		assertRunsEqual(t, label+": Leave vs always-Idle", idleGot, leaveGot, idleStats, leaveStats)
	}
}
