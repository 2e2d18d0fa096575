package sim

// Adaptive per-slot mode selection suite: the engine's exact-vs-far choice
// must be a pure function of the live sender count (deterministic,
// worker-count independent), every adaptive run must be bit-identical to an
// engine forced to the chosen mode per slot (the drift gate), and the
// quadtree engine must keep the exact engine's structural guarantees —
// winner exactness, zero-allocation steady state and pool/serial
// equality.

import (
	"math/rand"
	"testing"

	"sinrconn/internal/sinr"
	"sinrconn/internal/workload"
)

// burstProto drives a bursty channel: even slots are dense (half the nodes
// transmit — far territory), odd slots are sparse (a handful transmit —
// exact territory). Listeners are the non-transmitting nodes.
type burstProto struct {
	id    int
	power float64
}

func (p *burstProto) Step(slot int, inbox []Delivery) Action {
	dense := slot%2 == 0
	if dense && p.id%2 == 0 {
		return Transmit(p.power, Message{Kind: KindBroadcast, From: p.id, To: NoAddressee})
	}
	if !dense && p.id < 8 {
		return Transmit(p.power, Message{Kind: KindBroadcast, From: p.id, To: NoAddressee})
	}
	return Listen()
}

// recordProto wraps any protocol with an inbox log.
type recordProto struct {
	inner Protocol
	got   []Delivery
}

func (p *recordProto) Step(slot int, inbox []Delivery) Action {
	p.got = append(p.got, inbox...)
	return p.inner.Step(slot, inbox)
}

// adaptiveEngine builds a quadtree-backed engine over a bursty workload.
// cfg mutations (workers, crossover, hooks) are applied by the caller;
// record wraps every node with an inbox log (off for the alloc gate, whose
// steady state must not grow slices).
func adaptiveEngine(t *testing.T, n int, record bool, cfg Config) (*Engine, []*recordProto) {
	t.Helper()
	pts := workload.JitteredGrid(rand.New(rand.NewSource(17)), n, 3, 0.8)
	in := sinr.MustInstance(pts, sinr.DefaultParams())
	power := in.Params().SafePower(4)
	procs := make([]Protocol, n)
	var recs []*recordProto
	for i := 0; i < n; i++ {
		bp := &burstProto{id: i, power: power}
		if record {
			r := &recordProto{inner: bp}
			recs = append(recs, r)
			procs[i] = r
		} else {
			procs[i] = bp
		}
	}
	q, err := in.QuadTree(0.5)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Far = q
	e, err := NewEngine(in, procs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, recs
}

// TestAdaptiveModeSelection pins the selection rule: dense slots resolve
// far-field, slots under the crossover resolve exactly, and the recorded
// per-slot modes are exactly what |txs| against the crossover predicts.
func TestAdaptiveModeSelection(t *testing.T) {
	// The explicit crossover keeps the 256-node burst workload exercising
	// both modes (its dense slots carry 128 senders, under the calibrated
	// production default).
	const n, slots, crossover = 256, 10, 64
	var events []SlotEvent
	e, _ := adaptiveEngine(t, n, false, Config{
		Workers:           1,
		AdaptiveCrossover: crossover,
		Observer:          func(ev SlotEvent) { events = append(events, ev) },
	})
	defer e.Close()
	e.Run(slots)
	if len(events) != slots {
		t.Fatalf("observer saw %d slots, want %d", len(events), slots)
	}
	for _, ev := range events {
		wantFar := ev.Senders >= crossover
		if ev.Far != wantFar {
			t.Fatalf("slot %d (%d senders): far=%v, selection rule predicts %v",
				ev.Slot, ev.Senders, ev.Far, wantFar)
		}
	}
	if !events[0].Far || events[1].Far {
		t.Fatalf("burst workload did not exercise both modes: %+v, %+v", events[0], events[1])
	}
}

// TestAdaptiveDriftGate is the bit-identity gate of the satellite spec: a
// run with adaptive selection enabled must be bit-identical — stats,
// deliveries, and every Delivery field — to a run forcing the chosen mode
// per slot through the replay hook. Both runs decode on a two-worker
// pool — the calibration re-measured after the Morton relayout left
// DefaultAdaptiveCrossover at 768 (see engine.go), and this gate pins that
// the selection layer stays a pure re-schedule above it.
func TestAdaptiveDriftGate(t *testing.T) {
	const n, slots = 256, 14
	var modes []bool
	a, arecs := adaptiveEngine(t, n, true, Config{
		Workers:           2,
		AdaptiveCrossover: 64, // both modes exercised at n=256 (see above)
		Observer:          func(ev SlotEvent) { modes = append(modes, ev.Far) },
	})
	defer a.Close()
	a.Run(slots)

	b, brecs := adaptiveEngine(t, n, true, Config{
		Workers:  2,
		forceFar: func(slot, senders int) bool { return modes[slot] },
	})
	defer b.Close()
	b.Run(slots)

	if a.Stats() != b.Stats() {
		t.Fatalf("adaptive run diverged from forced-mode replay: %+v vs %+v", a.Stats(), b.Stats())
	}
	for i := range arecs {
		ga, gb := arecs[i].got, brecs[i].got
		if len(ga) != len(gb) {
			t.Fatalf("node %d: %d vs %d deliveries", i, len(ga), len(gb))
		}
		for k := range ga {
			if ga[k] != gb[k] {
				t.Fatalf("node %d delivery %d: adaptive %+v forced %+v", i, k, ga[k], gb[k])
			}
		}
	}
}

// TestQuadtreeEngineMatchesExactDeliveries compares quadtree and exact
// engines on a fixed-role instance: identical delivery sets (winner
// exactness) with SINR inside the certified band. The quadtree engine is
// forced far on every slot (AdaptiveCrossover 1) and must report it. Decode verdicts could in
// principle flip inside the band at the β cut; the comfortable SafePower
// margins here keep every decision far from it.
func TestQuadtreeEngineMatchesExactDeliveries(t *testing.T) {
	const n, slots = 256, 12
	farSlots := 0
	run := func(useQuad bool) ([]Delivery, Stats, float64) {
		pts := workload.JitteredGrid(rand.New(rand.NewSource(11)), n, 3, 0.8)
		in := sinr.MustInstance(pts, sinr.DefaultParams())
		power := in.Params().SafePower(4)
		procs := make([]Protocol, n)
		recs := make([]*recordingProto, n)
		for i := 0; i < n; i++ {
			recs[i] = &recordingProto{fixedProto: fixedProto{id: i, transmit: i%4 == 0, power: power}}
			procs[i] = recs[i]
		}
		cfg := Config{Workers: 1, Seed: 3}
		ce := 0.0
		if useQuad {
			q, err := in.QuadTree(0.5)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Far, cfg.AdaptiveCrossover, cfg.Observer = q, 1, countFar(&farSlots)
			ce = q.CertifiedMaxRelError()
		}
		e, err := NewEngine(in, procs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		e.Run(slots)
		var all []Delivery
		for _, r := range recs {
			all = append(all, r.got...)
		}
		return all, e.Stats(), ce
	}
	exact, exactStats, _ := run(false)
	far, farStats, ce := run(true)
	if farSlots != slots {
		t.Fatalf("forced quadtree engine resolved %d/%d slots far", farSlots, slots)
	}
	if len(exact) != len(far) {
		t.Fatalf("delivery count: exact %d quadtree %d", len(exact), len(far))
	}
	if exactStats.Deliveries != farStats.Deliveries || exactStats.Transmissions != farStats.Transmissions {
		t.Fatalf("stats diverged: exact %+v quadtree %+v", exactStats, farStats)
	}
	for i := range exact {
		if exact[i].Msg != far[i].Msg || exact[i].Dist != far[i].Dist {
			t.Fatalf("delivery %d: exact %+v quadtree %+v", i, exact[i], far[i])
		}
		lo := far[i].SINR * (1 - ce) * (1 - 1e-9)
		hi := far[i].SINR * (1 + ce) * (1 + 1e-9)
		if exact[i].SINR < lo || exact[i].SINR > hi {
			t.Fatalf("delivery %d: quadtree SINR %v outside certified band of exact %v (ε=%v)",
				i, far[i].SINR, exact[i].SINR, ce)
		}
	}
}

// TestQuadtreeSlotLoopZeroAlloc asserts the quadtree slot loop — forced
// far (crossover 1) and mixed (crossover 64) — keeps the exact path's
// zero-allocation steady state, serial and pooled (the pooled far slot
// decodes through stageDecode). An observer counts the modes of the
// measured slots: the forced engine must resolve every non-empty slot far,
// and the bursty workload must put both far slots and exact slots (the
// far-field engine's on-the-fly path loss) inside the mixed engine's
// measured window.
func TestQuadtreeSlotLoopZeroAlloc(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, crossover := range []int{1, 64} {
			var far, exact int
			obs := func(ev SlotEvent) {
				if ev.Far {
					far++
				} else if ev.Senders > 0 {
					exact++
				}
			}
			e, _ := adaptiveEngine(t, 256, false, Config{Workers: workers, AdaptiveCrossover: crossover, Observer: obs})
			e.Run(8)
			far, exact = 0, 0
			allocs := testing.AllocsPerRun(50, func() { e.Step() })
			pooled := e.pool != nil
			e.Close()
			if allocs != 0 {
				t.Fatalf("workers=%d crossover=%d: quadtree steady-state Step allocates %.1f times/op, want 0",
					workers, crossover, allocs)
			}
			if far == 0 || (crossover == 1) != (exact == 0) {
				t.Fatalf("workers=%d crossover=%d: measured %d far and %d exact slots; the window must cover every mode the engine can take",
					workers, crossover, far, exact)
			}
			if pooled != (workers > 1) {
				t.Fatalf("workers=%d crossover=%d: engine pooled = %v", workers, crossover, pooled)
			}
		}
	}
}

// TestQuadtreePoolMatchesSerial asserts forced-far (crossover 1) and mixed
// (crossover 64) results are identical for any worker count, like the
// exact engine's determinism contract; the pooled engine fans every stage
// out. The forced engine must resolve every slot far.
func TestQuadtreePoolMatchesSerial(t *testing.T) {
	for _, crossover := range []int{1, 64} {
		run := func(workers int) Stats {
			farSlots := 0
			e, _ := adaptiveEngine(t, 256, false, Config{Workers: workers, AdaptiveCrossover: crossover, Observer: countFar(&farSlots), forceFan: fanAlways})
			defer e.Close()
			e.Run(30)
			if crossover == 1 && farSlots != 30 {
				t.Fatalf("workers=%d: forced engine resolved %d/30 slots far", workers, farSlots)
			}
			return e.Stats()
		}
		serial, pooled := run(1), run(4)
		if serial != pooled {
			t.Fatalf("crossover=%d: worker count changed results: serial %+v pooled %+v", crossover, serial, pooled)
		}
	}
}
