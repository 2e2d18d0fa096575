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
// A positive leaveAt makes the node leave in that slot. With addressed
// set, a transmitter addresses the next node and an odd listener listens
// addressed. With held set, a listener holds its listen (Action.Hold), so
// the engine steps it only after a delivery; a held node must not also
// leave, since its leave slot would go unseen. With every set, a
// transmitter transmits only in every every-th slot and idles otherwise,
// and a held listener holds Listen/Idle instead of Listen.
type fixedProto struct {
	id        int
	transmit  bool
	power     float64
	leaveAt   int
	addressed bool
	held      bool
	every     int
}

func (p *fixedProto) Step(slot int, inbox []Delivery) Action {
	if p.leaveAt > 0 && slot >= p.leaveAt {
		return Leave()
	}
	if p.transmit && p.every > 0 && slot%p.every != 0 {
		return Idle()
	}
	if p.transmit {
		if p.addressed {
			return Transmit(p.power, Message{Kind: KindData, From: p.id, To: p.id + 1})
		}
		return Transmit(p.power, Message{Kind: KindBroadcast, From: p.id, To: NoAddressee})
	}
	a := Listen()
	if p.addressed && p.id%2 == 1 {
		a = ListenAddressed()
	}
	switch {
	case p.held && p.every > 0:
		a.Then, a.Hold = ActionIdle, true
	case p.held:
		a.Then, a.Hold = a.Kind, true
	}
	return a
}

// allocTestEngine builds the alloc/determinism engine; sparse leaves every
// third protocol nil (a node idle forever), far resolves every slot through
// a quadtree plan. With more than one worker every stage fans out, though
// the engine is below the fan-out floors.
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
	cfg := Config{Pool: testPool(t, workers), DropProb: drop, Seed: 3}
	if workers > 1 {
		cfg.forceFan = fanAlways
	}
	if far {
		q, err := in.QuadTree(0.5)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Far, cfg.AdaptiveCrossover = q, 1
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
// and a sparse (nil-protocol) node set, while nodes leave, under a listen
// range whose listener gate runs in every slot, with addressed listeners
// whose address gate runs in every slot, and with listeners the engine
// holds instead of stepping, exact and far-field. In the wakes rows one
// node transmits every fifth slot and the others hold Listen/Idle, so
// held members wake, are stepped and hold again during the measured
// slots, with the listen gate forced to compare them with the sender or
// onto the grid.
func TestSlotLoopZeroAlloc(t *testing.T) {
	cases := []struct {
		name      string
		workers   int
		drop      float64
		sparse    bool
		departing bool
		ranged    bool
		far       bool
		addressed bool
		held      bool
		wakes     bool
		grid      bool
	}{
		{"serial", 1, 0, false, false, false, false, false, false, false, false},
		{"pool", 4, 0, false, false, false, false, false, false, false, false},
		{"serial_drop", 1, 0.2, false, false, false, false, false, false, false, false},
		{"sparse_serial", 1, 0, true, false, false, false, false, false, false, false},
		{"sparse_pool", 4, 0.2, true, false, false, false, false, false, false, false},
		{"departing_serial", 1, 0, false, true, false, false, false, false, false, false},
		{"departing_pool", 4, 0.2, true, true, false, false, false, false, false, false},
		{"ranged_serial", 1, 0.2, false, false, true, false, false, false, false, false},
		{"ranged_pool", 4, 0, true, true, true, false, false, false, false, false},
		{"ranged_far", 1, 0.2, false, false, true, true, false, false, false, false},
		{"ranged_far_pool", 4, 0, false, true, true, true, false, false, false, false},
		{"addressed_serial", 1, 0.2, false, false, false, false, true, false, false, false},
		{"addressed_pool", 4, 0, true, true, false, false, true, false, false, false},
		{"addressed_far", 1, 0.2, false, false, false, true, true, false, false, false},
		{"addressed_ranged_far_pool", 4, 0, false, true, true, true, true, false, false, false},
		{"held_serial", 1, 0.2, false, false, false, false, false, true, false, false},
		{"held_sparse_pool", 4, 0, true, false, false, false, true, true, false, false},
		{"held_ranged_far_pool", 4, 0.2, false, false, true, true, true, true, false, false},
		{"held_wakes_ranged_serial", 1, 0, false, false, true, false, false, true, true, false},
		{"held_wakes_ranged_grid_pool", 4, 0.2, false, false, true, false, false, true, true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := allocTestEngine(t, 128, tc.workers, tc.drop, tc.sparse, tc.far)
			for _, p := range e.procs {
				if fp, ok := p.(*fixedProto); ok {
					fp.addressed, fp.held = tc.addressed, tc.held
					if tc.wakes {
						fp.transmit, fp.every = fp.id == 60, 5
					}
				}
			}
			if tc.wakes {
				grid := tc.grid
				e.cfg.forceGate = func(int, int, bool) bool { return grid }
			}
			if tc.ranged {
				// Senders sit on every fourth column of a lattice of
				// spacing about 2, so range 3 gates some listeners out.
				e.SetListenRange(3)
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
			if tc.ranged && (!tc.wakes || tc.grid) && !(e.gate.built && e.gate.ok) {
				t.Fatal("the gate's cell grid is unbuilt or unusable")
			}
			if tc.wakes && !tc.grid && e.gate.built {
				t.Fatal("a gate forced to compare built its cell grid")
			}
			if epoch := e.addrEpoch; tc.addressed != (epoch > 0) {
				t.Fatalf("the address gate ran in %d slots", epoch)
			}
			live, delivered := e.Live(), e.Stats().Deliveries
			steps, far := 0, 0
			allocs := testing.AllocsPerRun(50, func() {
				e.Step()
				steps++
				if e.farSlot {
					far++
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state Step allocates %.1f times/op, want 0", allocs)
			}
			if tc.far && far != steps {
				t.Fatalf("%d of %d measured slots resolved far, want all", far, steps)
			}
			if left := live - e.Live(); tc.departing != (left > 0) {
				t.Fatalf("%d nodes left during the measured slots", left)
			}
			if tc.wakes && (e.Stats().Deliveries == delivered || len(e.held.nodes) == 0) {
				t.Fatalf("no held member woke during the measured slots (%d held)", len(e.held.nodes))
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
			e.Run(40)
			return e.Stats()
		}
		serial, pooled := run(1), run(4)
		if serial != pooled {
			t.Fatalf("sparse=%v: worker count changed results: serial %+v pooled %+v", sparse, serial, pooled)
		}
	}
}

// tideProto is a TVC-shaped load: it leaves at slot leave (never if
// negative) and until then transmits with a probability that cycles
// through sparse and dense slots, listening or idling otherwise.
type tideProto struct {
	id, leave int
	power     float64
}

func (p *tideProto) Step(slot int, _ []Delivery) Action {
	if p.leave >= 0 && slot >= p.leave {
		return Leave()
	}
	switch c := dropCoin(41, slot, p.id); {
	case c < [4]float64{0.002, 0.01, 0.05, 0.3}[slot%4]:
		return Transmit(p.power, Message{Kind: KindBroadcast, From: p.id, To: NoAddressee, Tag: slot})
	case c < 0.8:
		return Listen()
	}
	return Idle()
}

// TestFanOutFloorsMatchForced runs a TVC-shaped mix of stage sizes on an
// engine at the real fan-out floors: live nodes fall through stepFanOutMin
// as half of them leave, slots alternate between sparse and dense decodes
// on both sides of decodeFanOutMin, and a listen range set midway shrinks
// the decode work further. Every inbox and counter must be bit-identical
// to the same engine forced to run every stage inline and to one forced
// to fan every stage out, and the floors must have taken all four
// decisions.
func TestFanOutFloorsMatchForced(t *testing.T) {
	const n, slots = 2304, 32
	in := sinr.MustInstance(workload.JitteredGrid(rand.New(rand.NewSource(19)), n, 2.6, 0.8), sinr.DefaultParams())
	power := in.Params().SafePower(4)
	decided := map[[2]bool]int{} // {decode stage, fanned out} → stages
	floors := func(st stage, _ int, fan bool) bool {
		decided[[2]bool{st == stageDecode, fan}]++
		return fan
	}
	run := func(force func(stage, int, bool) bool) ([][]Delivery, Stats) {
		procs := make([]Protocol, n)
		recs := make([]*recordProto, n)
		for i := range procs {
			leave := -1
			if i%2 == 0 {
				leave = int(dropCoin(43, 0, i) * 2 * slots)
			}
			recs[i] = &recordProto{inner: &tideProto{id: i, leave: leave, power: power}}
			procs[i] = recs[i]
		}
		e := mustEngine(t, in, procs, Config{Pool: testPool(t, 2), DropProb: 0.1, Seed: 5, forceFan: force})
		e.Run(slots / 2)
		e.SetListenRange(8)
		e.Run(slots / 2)
		got := make([][]Delivery, n)
		for i, rec := range recs {
			got[i] = append(rec.got, e.inboxes[i]...)
		}
		return got, e.Stats()
	}
	realGot, realStats := run(floors)
	for _, k := range [][2]bool{{false, false}, {false, true}, {true, false}, {true, true}} {
		if decided[k] == 0 {
			t.Fatalf("the floors never decided fan-out = %v for the %s stage: %v", k[1], map[bool]string{false: "step", true: "decode"}[k[0]], decided)
		}
	}
	if realStats.Deliveries == 0 {
		t.Fatal("nothing delivered")
	}
	inlineGot, inlineStats := run(func(stage, int, bool) bool { return false })
	assertRunsEqual(t, "floors vs forced inline", realGot, inlineGot, realStats, inlineStats)
	fanGot, fanStats := run(fanAlways)
	assertRunsEqual(t, "floors vs forced fan-out", realGot, fanGot, realStats, fanStats)
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
		{DropProb: 0.1, Seed: 5},
		{Pool: testPool(t, 4), DropProb: 0.1, Seed: 5},
		{Far: q, AdaptiveCrossover: 1},
		{Pool: testPool(t, 4), Far: q, AdaptiveCrossover: 1},
	} {
		far := 0
		cfg.Observer = countFar(&far)
		idleGot, idleStats := run(cfg, false)
		nilGot, nilStats := run(cfg, true)
		if cfg.Far != nil && far != 2*slots {
			t.Fatalf("workers=%d: %d of %d slots resolved far, want all", poolSize(cfg), far, 2*slots)
		}
		for i := 2; i < n; i += 3 {
			if len(idleGot[i]) != 0 {
				t.Fatalf("workers=%d far=%v: idle node %d received %d deliveries", poolSize(cfg), cfg.Far != nil, i, len(idleGot[i]))
			}
		}
		if idleStats.Deliveries == 0 {
			t.Fatalf("workers=%d far=%v: nothing delivered", poolSize(cfg), cfg.Far != nil)
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
		cfg.Observer = countFar(&far)
		e := mustEngine(t, in, procs, cfg)
		e.Run(slots)
		got := make([][]Delivery, n)
		for i, r := range recs {
			got[i] = r.got
		}
		return got, e.Stats(), e.Live(), far
	}
	for _, cfg := range []Config{
		{DropProb: 0.1, Seed: 5},
		{Pool: testPool(t, 4), DropProb: 0.1, Seed: 5},
		{Far: q, AdaptiveCrossover: 24},
		{Pool: testPool(t, 4), Far: q, AdaptiveCrossover: 24, DropProb: 0.1, Seed: 5},
	} {
		label := fmt.Sprintf("workers=%d far=%v", poolSize(cfg), cfg.Far != nil)
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
		if cfg.Far != nil && (leaveFar == 0 || leaveFar == slots) {
			t.Fatalf("%s: %d of %d slots far, want both modes", label, leaveFar, slots)
		}
		assertRunsEqual(t, label+": Leave vs always-Idle", idleGot, leaveGot, idleStats, leaveStats)
	}
}
