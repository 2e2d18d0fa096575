package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sinrconn/internal/geom"
	"sinrconn/internal/sinr"
	"sinrconn/internal/workload"
)

// scripted replays a fixed slot-indexed action sequence and records every
// inbox it sees.
type scripted struct {
	actions []Action
	seen    [][]Delivery
}

func (s *scripted) Step(slot int, inbox []Delivery) Action {
	cp := make([]Delivery, len(inbox))
	copy(cp, inbox)
	s.seen = append(s.seen, cp)
	if slot < len(s.actions) {
		return s.actions[slot]
	}
	return Idle()
}

func lineInstance(t testing.TB, xs ...float64) *sinr.Instance {
	t.Helper()
	pts := make([]geom.Point, len(xs))
	for i, x := range xs {
		pts[i] = geom.Point{X: x}
	}
	return sinr.MustInstance(pts, sinr.DefaultParams())
}

// fanAlways forces every stage of a pooled engine onto the pool, so that
// tests on engines below the fan-out floors still run the pooled path.
func fanAlways(stage, int, bool) bool { return true }

func mustEngine(t testing.TB, in *sinr.Instance, procs []Protocol, cfg Config) *Engine {
	t.Helper()
	e, err := NewEngine(in, procs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestSingleTransmitterDelivered(t *testing.T) {
	in := lineInstance(t, 0, 3, 6)
	p := in.Params()
	msg := Message{Kind: KindBroadcast, From: 0, To: NoAddressee}
	sender := &scripted{actions: []Action{Transmit(p.SafePower(8), msg)}}
	l1 := &scripted{actions: []Action{Listen()}}
	l2 := &scripted{actions: []Action{Listen()}}
	e := mustEngine(t, in, []Protocol{sender, l1, l2}, Config{Workers: 1})
	e.Run(2) // slot 0 transmits; slot 1 exposes the inbox

	for i, l := range []*scripted{l1, l2} {
		if len(l.seen) != 2 || len(l.seen[1]) != 1 {
			t.Fatalf("listener %d inbox history %v, want delivery at slot 1", i+1, l.seen)
		}
		d := l.seen[1][0]
		if d.Msg != msg {
			t.Errorf("listener %d got %+v", i+1, d.Msg)
		}
		wantDist := in.Dist(0, i+1)
		if math.Abs(d.Dist-wantDist) > 1e-9 {
			t.Errorf("listener %d Dist = %v, want %v", i+1, d.Dist, wantDist)
		}
		if d.SINR < p.Beta {
			t.Errorf("listener %d SINR = %v below beta", i+1, d.SINR)
		}
		if d.Slot != 0 {
			t.Errorf("listener %d Slot = %d, want 0", i+1, d.Slot)
		}
	}
	st := e.Stats()
	if st.Transmissions != 1 || st.Deliveries != 2 || st.Slots != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCollisionBetweenEqualSenders(t *testing.T) {
	// Two equal-power senders equidistant from a central listener: SINR ≈ 1
	// < β = 1.5, so nothing is decodable.
	in := lineInstance(t, 0, 5, 10)
	p := in.Params()
	pw := p.SafePower(8)
	msg := Message{Kind: KindBroadcast}
	s1 := &scripted{actions: []Action{Transmit(pw, msg)}}
	mid := &scripted{actions: []Action{Listen()}}
	s2 := &scripted{actions: []Action{Transmit(pw, msg)}}
	e := mustEngine(t, in, []Protocol{s1, mid, s2}, Config{Workers: 1})
	e.Run(2)

	if len(mid.seen[1]) != 0 {
		t.Fatalf("middle listener decoded despite collision: %+v", mid.seen[1])
	}
	if st := e.Stats(); st.Collisions != 1 {
		t.Errorf("collisions = %d, want 1", st.Collisions)
	}
}

func TestCaptureEffect(t *testing.T) {
	// A much closer sender is decoded despite a far interferer.
	in := lineInstance(t, 0, 1, 100)
	p := in.Params()
	near := &scripted{actions: []Action{Transmit(p.SafePower(2), Message{From: 0})}}
	listener := &scripted{actions: []Action{Listen()}}
	far := &scripted{actions: []Action{Transmit(p.SafePower(2), Message{From: 2})}}
	e := mustEngine(t, in, []Protocol{near, listener, far}, Config{Workers: 1})
	e.Run(2)

	if len(listener.seen[1]) != 1 || listener.seen[1][0].Msg.From != 0 {
		t.Fatalf("capture failed: inbox %+v", listener.seen[1])
	}
}

func TestHalfDuplex(t *testing.T) {
	// Two mutual transmitters: neither receives the other's message.
	in := lineInstance(t, 0, 2)
	p := in.Params()
	a := &scripted{actions: []Action{Transmit(p.SafePower(2), Message{From: 0})}}
	b := &scripted{actions: []Action{Transmit(p.SafePower(2), Message{From: 1})}}
	e := mustEngine(t, in, []Protocol{a, b}, Config{Workers: 1})
	e.Run(2)
	if len(a.seen[1]) != 0 || len(b.seen[1]) != 0 {
		t.Fatal("transmitting node received a message (half-duplex violated)")
	}
}

func TestIdleNodesReceiveNothing(t *testing.T) {
	in := lineInstance(t, 0, 2)
	p := in.Params()
	a := &scripted{actions: []Action{Transmit(p.SafePower(2), Message{From: 0})}}
	b := &scripted{actions: []Action{Idle()}}
	e := mustEngine(t, in, []Protocol{a, b}, Config{Workers: 1})
	e.Run(2)
	if len(b.seen[1]) != 0 {
		t.Fatal("idle node received a message")
	}
}

func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	// The same scripted schedule must produce identical stats for 1 and 8
	// workers, every stage of the 8-worker engine fanned out.
	run := func(workers int) Stats {
		in := lineInstance(t, 0, 2, 4, 6, 8, 10, 12, 14, 16, 18)
		p := in.Params()
		procs := make([]Protocol, in.Len())
		for i := range procs {
			var acts []Action
			for s := 0; s < 10; s++ {
				if (s+i)%3 == 0 {
					acts = append(acts, Transmit(p.SafePower(3), Message{From: i}))
				} else {
					acts = append(acts, Listen())
				}
			}
			procs[i] = &scripted{actions: acts}
		}
		e := mustEngine(t, in, procs, Config{Workers: workers, DropProb: 0.2, Seed: 99, forceFan: fanAlways})
		defer e.Close()
		e.Run(10)
		return e.Stats()
	}
	a, b := run(1), run(8)
	if a != b {
		t.Fatalf("stats differ across worker counts: %+v vs %+v", a, b)
	}
}

func TestDropInjection(t *testing.T) {
	// With DropProb ≈ 1 - tiny, most deliveries are dropped; with 0, none.
	count := func(drop float64) (delivered, dropped int) {
		in := lineInstance(t, 0, 3)
		p := in.Params()
		var sActs, lActs []Action
		for s := 0; s < 200; s++ {
			sActs = append(sActs, Transmit(p.SafePower(4), Message{From: 0}))
			lActs = append(lActs, Listen())
		}
		s := &scripted{actions: sActs}
		l := &scripted{actions: lActs}
		e := mustEngine(t, in, []Protocol{s, l}, Config{Workers: 1, DropProb: drop, Seed: 7})
		e.Run(200)
		st := e.Stats()
		return st.Deliveries, st.Dropped
	}
	d0, drop0 := count(0)
	if d0 != 200 || drop0 != 0 {
		t.Fatalf("no-drop run: delivered %d dropped %d", d0, drop0)
	}
	dHalf, dropHalf := count(0.5)
	if dHalf+dropHalf != 200 {
		t.Fatalf("accounting broken: %d + %d != 200", dHalf, dropHalf)
	}
	if dropHalf < 60 || dropHalf > 140 {
		t.Fatalf("drop count %d far from expectation 100", dropHalf)
	}
}

func TestRunUntil(t *testing.T) {
	in := lineInstance(t, 0, 2)
	a := &scripted{}
	b := &scripted{}
	e := mustEngine(t, in, []Protocol{a, b}, Config{Workers: 1})
	ran := e.RunUntil(100, func() bool { return e.Slot() >= 5 })
	if ran != 5 || e.Slot() != 5 {
		t.Errorf("ran %d slots, engine at %d", ran, e.Slot())
	}
	ran = e.RunUntil(3, func() bool { return false })
	if ran != 3 {
		t.Errorf("capped run executed %d slots", ran)
	}
}

func TestNewEngineValidation(t *testing.T) {
	in := lineInstance(t, 0, 2)
	if _, err := NewEngine(in, []Protocol{&scripted{}}, Config{}); err == nil {
		t.Error("mismatched protocol count accepted")
	}
	if _, err := NewEngine(in, []Protocol{&scripted{}, &scripted{}}, Config{DropProb: 1.5}); err == nil {
		t.Error("invalid drop probability accepted")
	}
	if _, err := NewEngine(in, []Protocol{&scripted{}, &scripted{}}, Config{DropProb: -0.1}); err == nil {
		t.Error("negative drop probability accepted")
	}
	if _, err := NewEngine(in, []Protocol{&scripted{}, &scripted{}}, Config{DropProb: math.NaN()}); err == nil {
		t.Error("NaN drop probability accepted")
	}
}

func TestAddressedAckSemantics(t *testing.T) {
	// Receivers see the To field and can filter acknowledgments addressed
	// to someone else; the engine itself delivers to every listener.
	in := lineInstance(t, 0, 2, 4)
	p := in.Params()
	ack := Message{Kind: KindAck, From: 0, To: 2}
	s := &scripted{actions: []Action{Transmit(p.SafePower(5), ack)}}
	other := &scripted{actions: []Action{Listen()}}
	target := &scripted{actions: []Action{Listen()}}
	e := mustEngine(t, in, []Protocol{s, other, target}, Config{Workers: 1})
	e.Run(2)
	if len(target.seen[1]) != 1 || target.seen[1][0].Msg.To != 2 {
		t.Fatal("target did not receive addressed ack")
	}
	if len(other.seen[1]) != 1 || other.seen[1][0].Msg.To != 2 {
		t.Fatal("bystander should overhear the ack (and ignore it by To)")
	}
}

// coinProto draws the first number of a fresh node stream every slot,
// what an Init node's step costs in a broadcast slot, then transmits
// (transmit), listens, or idles (idle).
type coinProto struct {
	id             int
	transmit, idle bool
	power, sink    float64
}

func (p *coinProto) Step(slot int, _ []Delivery) Action {
	rng := NodeRand{Seed: int64(slot)<<32 | int64(p.id)}
	p.sink += rng.Float64()
	switch {
	case p.idle:
		return Idle()
	case p.transmit:
		return Transmit(p.power, Message{Kind: KindBroadcast, From: p.id, To: NoAddressee})
	}
	return Listen()
}

// BenchmarkEngineSlot is the sweep the fan-out floors stepFanOutMin and
// decodeFanOutMin are fitted from: one slot of a JitteredGrid(2.6, 0.8)
// engine, each stage run on the engine goroutine (fan=false) or fanned out
// to a 2-worker pool (fan=true). The step cases idle every node, so the
// slot is stage 1 alone; they decode nothing and use a quadtree plan only
// to skip the gain table. The decode cases step inline and decode exactly
// from the gain table (or on the fly, as an adaptive far-field engine's
// exact slots do), with one node in live/senders transmitting; their work
// is senders·(live − senders) listener–sender pairs.
func BenchmarkEngineSlot(b *testing.B) {
	type sweep struct {
		live, senders int
		onTheFly      bool
	}
	var cases []sweep
	for _, live := range []int{512, 1024, 2048, 4096, 8192} {
		cases = append(cases, sweep{live: live})
	}
	for _, senders := range []int{4, 8, 16, 32, 64} {
		cases = append(cases, sweep{live: 1024, senders: senders})
	}
	for _, senders := range []int{2, 4, 8, 16} {
		cases = append(cases, sweep{live: 4096, senders: senders}, sweep{live: 4096, senders: senders, onTheFly: true})
	}
	never := func(int, int) bool { return false }
	for _, tc := range cases {
		for _, fan := range []bool{false, true} {
			name := fmt.Sprintf("step/live=%d/fan=%v", tc.live, fan)
			if tc.senders > 0 {
				name = fmt.Sprintf("decode/live=%d/senders=%d/fan=%v", tc.live, tc.senders, fan)
				if tc.onTheFly {
					name += "/onthefly"
				}
			}
			b.Run(name, func(b *testing.B) {
				in := sinr.MustInstance(workload.JitteredGrid(rand.New(rand.NewSource(1)), tc.live, 2.6, 0.8), sinr.DefaultParams())
				power := in.Params().SafePower(4)
				procs := make([]Protocol, tc.live)
				for i := range procs {
					procs[i] = &coinProto{
						id:       i,
						transmit: tc.senders > 0 && i%(tc.live/tc.senders) == 0,
						idle:     tc.senders == 0,
						power:    power,
					}
				}
				cfg := Config{Workers: 2, forceFan: func(st stage, _ int, _ bool) bool {
					return fan && (st == stageDecode) == (tc.senders > 0)
				}}
				if tc.senders == 0 || tc.onTheFly {
					q, err := in.QuadTree(1.0)
					if err != nil {
						b.Fatal(err)
					}
					cfg.Far, cfg.forceFar = q, never
				}
				e, err := NewEngine(in, procs, cfg)
				if err != nil {
					b.Fatal(err)
				}
				defer e.Close()
				e.Run(3)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.Step()
				}
			})
		}
	}
}
